package daemon

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/policy"
	"repro/internal/routeserver"
	"repro/internal/wire"
)

// backoff is the failover client's capped jittered retry delay: it doubles
// per consecutive failure from backoffBase up to backoffCap, and each sleep
// is jittered to half-to-full of the current value so a thundering herd of
// reconnecting clients spreads out. The rng is caller-owned (one per client
// goroutine).
type backoff struct {
	cur time.Duration
	rng *rand.Rand
}

const (
	backoffBase = 500 * time.Microsecond
	backoffCap  = 50 * time.Millisecond
)

// sleep waits the current delay (jittered) and doubles it toward the cap.
func (b *backoff) sleep() {
	if b.cur <= 0 {
		b.cur = backoffBase
	}
	d := b.cur/2 + time.Duration(b.rng.Int63n(int64(b.cur/2)+1))
	time.Sleep(d)
	b.cur = min(2*b.cur, backoffCap)
}

// reset returns to the base delay after a success.
func (b *backoff) reset() { b.cur = 0 }

// Failover is a client over an HA replica group: it talks to one replica
// at a time, follows NotPrimary redirects to the current primary, and on
// connection errors or timeouts rotates to the next replica address with
// capped jittered backoff. Like Client it is synchronous and not safe for
// concurrent use. It is the load generator's wire client (routeserver.Run
// dials one per client goroutine); over a single address it is a plain
// reconnecting client.
type Failover struct {
	network string
	addrs   []string
	timeout time.Duration
	cur     int    // index into addrs of the preferred dial target
	target  string // explicit redirect target, overrides addrs[cur] once
	cl      *Client
	bo      *backoff
	stats   routeserver.RecoveryStats
}

// maxAttempts is the floor of one request's recovery loop: enough to try
// every replica twice plus follow a redirect from each. The loop also
// keeps retrying until the request timeout has elapsed, so a request only
// fails once the group has been unreachable for a full timeout window —
// an election shorter than that (the common case) is invisible to the
// caller beyond latency.
func (f *Failover) maxAttempts() int { return 3*len(f.addrs) + 2 }

// DialFailover builds a failover client over the replica client addresses
// (tried in order; the first that accepts and serves wins). timeout
// bounds each round trip — it is the client-side heartbeat that detects a
// dead primary whose TCP peer never closed. Connections are established
// lazily on first use. seed derandomizes the backoff jitter for tests.
func DialFailover(network string, addrs []string, timeout time.Duration, seed int64) *Failover {
	return &Failover{
		network: network,
		addrs:   append([]string(nil), addrs...),
		timeout: timeout,
		bo:      &backoff{rng: rand.New(rand.NewSource(seed))},
	}
}

// RecoveryStats returns the redirect/reconnect counters.
func (f *Failover) RecoveryStats() routeserver.RecoveryStats { return f.stats }

// Close drops the current connection (a later request redials).
func (f *Failover) Close() error {
	if f.cl == nil {
		return nil
	}
	err := f.cl.Close()
	f.cl = nil
	return err
}

// connect ensures a live connection, dialing the redirect target if one
// is pending, else the current rotation address.
func (f *Failover) connect() error {
	if f.cl != nil {
		return nil
	}
	addr := f.addrs[f.cur%len(f.addrs)]
	if f.target != "" {
		addr = f.target
		f.target = ""
	}
	cl, err := Dial(f.network, addr)
	if err != nil {
		f.stats.Failures++
		f.cur++ // rotate off the dead replica
		return err
	}
	cl.Timeout = f.timeout
	f.cl = cl
	return nil
}

// fail records a broken connection and rotates to the next replica.
func (f *Failover) fail() {
	f.Close()
	f.stats.Reconnects++
	f.cur++
}

// do runs op against the group until it succeeds or the attempt budget is
// spent. op runs on a connected client; a NotPrimaryError re-aims the
// next dial at the named primary, any other error rotates replicas.
func (f *Failover) do(op func(*Client) error) error {
	var lastErr error
	var deadline time.Time
	if f.timeout > 0 {
		deadline = time.Now().Add(f.timeout)
	}
	retry := func(attempt int) bool {
		return attempt < f.maxAttempts() ||
			(!deadline.IsZero() && time.Now().Before(deadline))
	}
	for attempt := 0; retry(attempt); attempt++ {
		if err := f.connect(); err != nil {
			lastErr = err
			f.bo.sleep()
			continue
		}
		err := op(f.cl)
		if err == nil {
			f.bo.reset()
			return nil
		}
		lastErr = err
		if np, ok := err.(*NotPrimaryError); ok {
			f.Close()
			if np.Addr != "" {
				f.target = np.Addr
				f.stats.Redirects++
				// A redirect is information, not a failure: dial the
				// primary immediately.
				continue
			}
			// Follower knows no primary yet (mid-election): back off and
			// retry the rotation.
			f.stats.Reconnects++
			f.bo.sleep()
			continue
		}
		f.fail()
		f.bo.sleep()
	}
	return fmt.Errorf("daemon: failover exhausted %d attempts: %w", f.maxAttempts(), lastErr)
}

// Query asks for a route, failing over as needed.
func (f *Failover) Query(req policy.Request) (routeserver.Result, error) {
	var res routeserver.Result
	err := f.do(func(c *Client) error {
		var err error
		res, err = c.Query(req)
		return err
	})
	return res, err
}

// Control sends one control op, failing over as needed, and returns the
// daemon's refusal as an error — the form a load run's wire events fire.
// Retrying after a mid-request connection loss can land an op twice; the
// second landing's refusal ("link was not failed here" after a retried
// restore) is returned as-is.
func (f *Failover) Control(op wire.PlanStep) error {
	var rep *wire.ControlReply
	err := f.do(func(c *Client) error {
		var err error
		rep, err = c.Control(op)
		return err
	})
	if err == nil && !rep.OK() {
		err = errors.New(rep.Err)
	}
	return err
}

package main

import (
	"encoding/binary"
	"encoding/json"
	"net"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ad"
	"repro/internal/policy"
	"repro/internal/routeserver"
	"repro/internal/synthesis"
)

// Span names. Every span is taken from outside the program: around a call
// into a layer's exported function, or at a net.Conn the benchmark hands to
// Daemon.ServeConn. Timers inside the program are a later issue.
const (
	spanClientRTT    = "client.rtt"          // generator: request queued -> reply decoded
	spanDaemonServe  = "daemon.serve"        // server conn: request frame fully read -> reply frame handed to Write
	spanBackendQuery = "backend.query"       // in-process ring: around Backend.Query
	spanRoute        = "synthesis.route"     // Strategy wrapper: around Route
	spanFootprint    = "synthesis.footprint" // Strategy wrapper: around Footprint
	spanInvalidate   = "synthesis.invalidate_scoped"
)

// span is one timed interval. Start and End are nanoseconds since the
// tracer was made; Req is the request ID the spans of one request share
// (on the in-process ring, the ring's own sequence number); Parent is the
// ID of the span that caused this one, 0 for a root.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// ring marks spans taken while the in-process ring, not the socket
	// generators, drove the stack.
	ring bool
}

// sampleEvery thins the per-request spans (client.rtt, daemon.serve and
// ring hits) to one request in this many, chosen by request ID so the
// spans of a sampled request are all kept. Synthesis spans and the ring's
// miss roots are all kept: they are few and they are the attribution.
const sampleEvery = 64

// tracer holds the spans and boundary counts of a traced run in memory.
// on gates recording, so one stack serves alternating untraced and traced
// windows and the difference between them is the tracing overhead.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	ring  atomic.Bool
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
	serve samples // daemon.serve durations, every request of a traced window

	// Server-side socket counts, traced windows only.
	reads, writes, bytesIn, bytesOut, requests atomic.Int64
	// unmatched counts replies the FIFO could not pair with a request.
	unmatched atomic.Int64

	// Strategy-side counts: Route calls, and the distinct keys routed
	// within each mutation epoch (a new epoch starts at every write-plane
	// call). Their ratio is 1 when each key is synthesized once per epoch.
	routeCalls atomic.Int64
	kmu        sync.Mutex
	epochKeys  map[routeserver.Key]struct{}
	uniqueKeys int64

	// inflight maps a key to the ring root now querying it, so the
	// wrapper can name the parent of a synthesis span: singleflight
	// allows one search per key in flight.
	inflight sync.Map // routeserver.Key -> *ringRoot
}

// ringRoot is one backend.query root on the in-process ring.
type ringRoot struct {
	id      uint64
	childNs atomic.Int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), epochKeys: make(map[routeserver.Key]struct{})}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	s.ring = t.ring.Load()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// sampled reports whether request id's per-request spans are kept.
func sampled(id uint64) bool { return id%sampleEvery == 0 }

// tracedStrategy delegates to the wrapped strategy and records a span
// around each read-plane search call and each scoped invalidation.
type tracedStrategy struct {
	synthesis.Strategy
	t *tracer
}

func (t *tracer) wrapStrategy(s synthesis.Strategy) synthesis.Strategy {
	return &tracedStrategy{Strategy: s, t: t}
}

// synth records one synthesis span, attributed by request key to the ring
// root in flight for it (if any).
func (t *tracer) synth(name string, req policy.Request, start, end int64) {
	s := span{Name: name, ID: t.ids.Add(1), Start: start, End: end}
	if v, ok := t.inflight.Load(routeserver.KeyOf(req)); ok {
		root := v.(*ringRoot)
		s.Parent, s.Req = root.id, root.id
		root.childNs.Add(end - start)
	}
	t.add(s)
}

func (s *tracedStrategy) Route(req policy.Request) (ad.Path, bool) {
	if !s.t.on.Load() {
		return s.Strategy.Route(req)
	}
	start := s.t.now()
	p, ok := s.Strategy.Route(req)
	s.t.synth(spanRoute, req, start, s.t.now())
	s.t.routeCalls.Add(1)
	k := routeserver.KeyOf(req)
	s.t.kmu.Lock()
	if _, seen := s.t.epochKeys[k]; !seen {
		s.t.epochKeys[k] = struct{}{}
		s.t.uniqueKeys++
	}
	s.t.kmu.Unlock()
	return p, ok
}

func (s *tracedStrategy) Footprint(req policy.Request, path ad.Path) synthesis.Footprint {
	if !s.t.on.Load() {
		return s.Strategy.Footprint(req, path)
	}
	start := s.t.now()
	fp := s.Strategy.Footprint(req, path)
	s.t.synth(spanFootprint, req, start, s.t.now())
	return fp
}

// newEpoch forgets the keys routed so far: after a mutation a key may
// legitimately be synthesized again.
func (s *tracedStrategy) newEpoch() {
	s.t.kmu.Lock()
	clear(s.t.epochKeys)
	s.t.kmu.Unlock()
}

func (s *tracedStrategy) Invalidate() {
	s.newEpoch()
	s.Strategy.Invalidate()
}

func (s *tracedStrategy) InvalidateScoped(c synthesis.Change) {
	s.newEpoch()
	if !s.t.on.Load() {
		s.Strategy.InvalidateScoped(c)
		return
	}
	start := s.t.now()
	s.Strategy.InvalidateScoped(c)
	s.t.add(span{Name: spanInvalidate, ID: s.t.ids.Add(1), Start: start, End: s.t.now()})
}

// frameScanner follows wire framing on a byte stream without decoding
// bodies: a 4-byte header whose last two bytes are the big-endian body
// length, then the body, whose first 8 bytes are the request ID in every
// message a daemon session carries.
type frameScanner struct {
	head [12]byte // header + ID of the frame in progress
	got  int      // bytes of the frame in progress seen so far
	size int      // its total length, known once got >= 4
	// first is the timestamp of the call that carried the frame's first byte.
	first int64
}

// feed consumes b, stamped at, and calls begun(id, first) once per frame
// as soon as its ID is known and ended(id) when its last byte is seen.
func (f *frameScanner) feed(b []byte, at int64, begun func(id uint64, first int64), ended func(id uint64)) {
	for len(b) > 0 {
		if f.got == 0 {
			f.first = at
		}
		if f.got < len(f.head) {
			n := copy(f.head[f.got:], b)
			f.got += n
			b = b[n:]
			if f.got >= 4 {
				f.size = 4 + int(binary.BigEndian.Uint16(f.head[2:4]))
			}
			if f.got == len(f.head) && begun != nil {
				begun(binary.BigEndian.Uint64(f.head[4:12]), f.first)
			}
		} else {
			n := f.size - f.got
			if n > len(b) {
				n = len(b)
			}
			f.got += n
			b = b[n:]
		}
		if f.got >= len(f.head) && f.got == f.size {
			if ended != nil {
				ended(binary.BigEndian.Uint64(f.head[4:12]))
			}
			f.got, f.size = 0, 0
		}
	}
}

// scanConn is the server end of one connection as Daemon.ServeConn sees
// it. It counts the session's Read and Write calls and bytes, and pairs
// each request frame (fully read) with its reply frame (handed to Write):
// a session answers in order, so the pairing is a FIFO.
type scanConn struct {
	net.Conn
	t   *tracer
	in  frameScanner // session reader goroutine only
	out frameScanner // session writer goroutine only

	mu       sync.Mutex
	arrivals []arrival
}

type arrival struct {
	id uint64
	at int64 // 0: read while tracing was off, not timed
}

func (t *tracer) wrapConn(c net.Conn) net.Conn { return &scanConn{Conn: c, t: t} }

func (c *scanConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		on := c.t.on.Load()
		if on {
			c.t.reads.Add(1)
			c.t.bytesIn.Add(int64(n))
		}
		// The scanner runs whether or not tracing is on: it must stay
		// aligned with the frames.
		c.in.feed(p[:n], c.t.now(), nil, func(id uint64) {
			a := arrival{id: id}
			if on {
				a.at = c.t.now()
				c.t.requests.Add(1)
			}
			c.mu.Lock()
			c.arrivals = append(c.arrivals, a)
			c.mu.Unlock()
		})
	}
	return n, err
}

func (c *scanConn) Write(p []byte) (int, error) {
	on := c.t.on.Load()
	if on {
		c.t.writes.Add(1)
		c.t.bytesOut.Add(int64(len(p)))
	}
	c.out.feed(p, c.t.now(), func(id uint64, first int64) {
		c.mu.Lock()
		if len(c.arrivals) == 0 {
			c.mu.Unlock()
			c.t.unmatched.Add(1)
			return
		}
		a := c.arrivals[0]
		c.arrivals = c.arrivals[1:]
		c.mu.Unlock()
		if a.id != id {
			c.t.unmatched.Add(1)
			return
		}
		if !on || a.at == 0 {
			return
		}
		c.t.mu.Lock()
		c.t.serve.add(time.Duration(first - a.at))
		c.t.mu.Unlock()
		if sampled(id) {
			c.t.add(span{Name: spanDaemonServe, ID: c.t.ids.Add(1), Req: id, Start: a.at, End: first})
		}
	}, nil)
	return c.Conn.Write(p)
}

// durations returns the sorted durations of the spans called name, socket
// phase or ring phase.
func (t *tracer) durations(name string, ring bool) samples {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out samples
	for _, s := range t.spans {
		if s.Name == name && s.ring == ring {
			out.add(time.Duration(s.End - s.Start))
		}
	}
	slices.Sort(out)
	return out
}

// synthLoad sums the socket-phase search spans (route and footprint) and
// measures how much of that time overlapped: busy is the sum of their
// durations, covered the length of the union of their intervals. busy ÷
// covered is the mean number of searches in flight while at least one is.
func (t *tracer) synthLoad() (busy, covered int64) {
	t.mu.Lock()
	var iv [][2]int64
	for _, s := range t.spans {
		if !s.ring && (s.Name == spanRoute || s.Name == spanFootprint) {
			iv = append(iv, [2]int64{s.Start, s.End})
			busy += s.End - s.Start
		}
	}
	t.mu.Unlock()
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var end int64
	for _, x := range iv {
		if x[0] > end {
			end = x[0]
		}
		if x[1] > end {
			covered += x[1] - end
			end = x[1]
		}
	}
	return busy, covered
}

// writeSpans writes every span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

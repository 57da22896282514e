package daemon

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"repro/internal/policy"
	"repro/internal/routeserver"
	"repro/internal/wire"
)

// NotPrimaryError is returned when a request landed on an HA follower:
// the daemon answered with a redirect instead of serving. Addr is the
// current primary's client address ("" when the follower knows no live
// primary yet, e.g. mid-election).
type NotPrimaryError struct {
	PrimaryID uint32
	Addr      string
}

// Error implements error.
func (e *NotPrimaryError) Error() string {
	if e.Addr == "" {
		return "daemon: not primary (no known primary)"
	}
	return fmt.Sprintf("daemon: not primary, redirect to replica %d at %s", e.PrimaryID, e.Addr)
}

// Client is a synchronous protocol client: one request on the wire at a
// time, each reply matched to its request ID. Not safe for concurrent use;
// the load harness gives every goroutine its own client, which is also
// what makes connection counts meaningful.
type Client struct {
	conn net.Conn
	bw   *bufio.Writer
	br   *bufio.Reader
	seq  uint64

	// Timeout, when positive, bounds each round trip: a reply not arriving
	// within it fails the request with a timeout error. Failover clients
	// use it as their liveness probe — a wedged primary looks exactly like
	// a dead one.
	Timeout time.Duration
}

// Dial connects a client to a daemon ("tcp", "unix").
func Dial(network, addr string) (*Client, error) {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	return &Client{
		conn: conn,
		bw:   bufio.NewWriter(conn),
		br:   bufio.NewReader(conn),
	}
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Do sends one request and reads its reply, whatever their types: what a
// front end that already holds a wire.Message — cmd/routed's remote line
// mode — calls instead of a typed method. The caller picks m's ID; Do does
// not match it. A NotPrimary reply is surfaced as *NotPrimaryError on every
// request kind.
func (c *Client) Do(m wire.Message) (wire.Message, error) {
	if c.Timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.Timeout))
		defer c.conn.SetDeadline(time.Time{})
	}
	if err := wire.WriteMessage(c.bw, m); err != nil {
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	rep, err := wire.ReadMessage(c.br)
	if err != nil {
		return nil, err
	}
	if np, ok := rep.(*wire.NotPrimary); ok {
		return nil, &NotPrimaryError{PrimaryID: np.PrimaryID, Addr: np.Addr}
	}
	return rep, nil
}

// call is the typed round trip under Query and Control: send m, which
// carries the sequence number just taken, and insist on a reply of type R
// that echoes it.
func call[R wire.Message](c *Client, m wire.Message) (r R, err error) {
	rep, err := c.Do(m)
	if err != nil {
		return r, err
	}
	if got, ok := rep.(R); ok && replyID(rep) == c.seq {
		return got, nil
	}
	return r, fmt.Errorf("daemon: bad reply %T to %v", rep, m.Type())
}

// Query asks for a route.
func (c *Client) Query(req policy.Request) (routeserver.Result, error) {
	c.seq++
	qr, err := call[*wire.QueryReply](c, &wire.Query{ID: c.seq, Req: req})
	if err != nil {
		return routeserver.Result{}, err
	}
	return routeserver.Result{Path: qr.Path, Found: qr.Found}, nil
}

// Control issues a control-plane mutation.
func (c *Client) Control(op wire.PlanStep) (*wire.ControlReply, error) {
	c.seq++
	return call[*wire.ControlReply](c, wire.NewControl(c.seq, op))
}

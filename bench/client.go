package main

import (
	"bufio"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/ad"
	"repro/internal/wire"
)

// clientConn is one client connection: internal/wire frames through a
// buffered reader and writer, as a policy gateway would hold it.
type clientConn struct {
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

func dial(network, addr string) (*clientConn, error) {
	c, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return newClientConn(c), nil
}

func newClientConn(c net.Conn) *clientConn {
	return &clientConn{c: c, br: bufio.NewReader(c), bw: bufio.NewWriter(c)}
}

func (cc *clientConn) close() { cc.c.Close() }

// roundTrip sends one request and waits for its reply.
func (cc *clientConn) roundTrip(m wire.Message) (wire.Message, error) {
	if err := wire.WriteMessage(cc.bw, m); err != nil {
		return nil, err
	}
	if err := cc.bw.Flush(); err != nil {
		return nil, err
	}
	return wire.ReadMessage(cc.br)
}

// clock is what the coordinator and the generators share: the index of
// the window now being timed (-1 outside the timed phase) and the stop
// flag. The coordinator writes, the generators read.
type clock struct {
	window atomic.Int32
	stop   atomic.Bool
}

// windowBuf is one generator's round trips of one window, handed to the
// coordinator when the generator sees the window change. Buffers come
// back through free, so a run's sample memory does not grow with its
// length (a growing heap would thin the garbage collector's cycles from
// one window to the next).
type windowBuf struct {
	window int32
	lat    samples
}

// answer is the last reply seen for a key on one connection.
type answer struct {
	seen  bool
	found bool
	path  ad.Path
}

// pendingAnswer is a reply whose content differs from the previous reply
// for its key on this connection (or is the first): it is checked against
// the oracle after the timed phase. Replies equal to the previous one are
// covered by that check, so every answer is validated and the timed path
// pays one slice comparison.
type pendingAnswer struct {
	key   int32
	found bool
	path  ad.Path
}

// generator drives one connection closed-loop: depth requests outstanding,
// the next one sent only when a reply frees a slot.
type generator struct {
	id          int
	depth       int
	redialEvery int
	in          *inputs
	addr        string
	clk         *clock
	tr          *tracer // nil in an untraced run
	cc          *clientConn
	pos         int // next tape index

	done chan windowBuf
	free chan samples

	// Owned by the generator goroutine until it exits.
	sent, failed uint64
	firstErr     error
	last         []answer
	pending      []pendingAnswer
	dials        samples
}

func newGenerator(id int, w workload, in *inputs, addr string, clk *clock, tr *tracer) (*generator, error) {
	g := &generator{
		id: id, depth: w.depth, redialEvery: w.redialEvery, in: in, addr: addr, clk: clk, tr: tr,
		pos:  id * len(in.tape) / nconns(),
		last: make([]answer, len(in.keys)),
		// The coordinator drains both at every window boundary, so a
		// handful are ever pending; 128 is beyond any window count, and a
		// send never blocks the generator.
		done: make(chan windowBuf, 128),
		free: make(chan samples, 128),
	}
	cc, err := dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	g.cc = cc
	return g, nil
}

func (g *generator) fail(err error) {
	g.failed++
	if g.firstErr == nil {
		g.firstErr = err
	}
}

// slot is one outstanding request.
type slot struct {
	id   uint64
	tape int32
	at   time.Time
}

// run is the generator loop. It returns when the clock says stop and
// every outstanding request has been answered, or on a transport error
// (counted as one failure per request then outstanding). The connection
// stays open: the stack must still be live when the heap is measured.
func (g *generator) run() {
	inflight := make([]slot, 0, g.depth) // FIFO: a session answers in order
	var buf samples
	window := int32(-1)
	sinceDial := 0
	seq := uint64(0)
	q := &wire.Query{}
	defer func() {
		if window >= 0 {
			g.done <- windowBuf{window: window, lat: buf}
		}
		close(g.done)
	}()

	for {
		stopping := g.clk.stop.Load()
		if stopping && len(inflight) == 0 {
			return
		}
		for !stopping && len(inflight) < g.depth {
			if g.redialEvery > 0 && sinceDial == g.redialEvery {
				if len(inflight) > 0 {
					break // answers first, then redial
				}
				g.cc.close()
				t0 := time.Now()
				cc, err := dial("tcp", g.addr)
				if err != nil {
					g.sent++ // the request this dial was for
					g.fail(fmt.Errorf("redial: %w", err))
					return
				}
				g.dials.add(time.Since(t0))
				g.cc, sinceDial = cc, 0
			}
			seq++
			q.ID = uint64(g.id)<<40 | seq
			q.Req = g.in.tape[g.pos]
			s := slot{id: q.ID, tape: int32(g.pos), at: time.Now()}
			if err := wire.WriteMessage(g.cc.bw, q); err != nil {
				g.sent++
				g.fail(err)
				g.failed += uint64(len(inflight))
				return
			}
			g.sent++
			sinceDial++
			inflight = append(inflight, s)
			if g.pos++; g.pos == len(g.in.tape) {
				g.pos = 0
			}
		}
		// Flush before blocking: once no reply is already buffered, the
		// server must see what was queued.
		if g.cc.bw.Buffered() > 0 && g.cc.br.Buffered() == 0 {
			if err := g.cc.bw.Flush(); err != nil {
				g.fail(err)
				g.failed += uint64(len(inflight) - 1)
				return
			}
		}
		m, err := wire.ReadMessage(g.cc.br)
		if err != nil {
			g.fail(err)
			g.failed += uint64(len(inflight) - 1)
			return
		}
		now := time.Now()
		s := inflight[0]
		inflight = inflight[:copy(inflight, inflight[1:])]

		rep, ok := m.(*wire.QueryReply)
		if !ok || rep.ID != s.id {
			g.fail(fmt.Errorf("request %#x answered by %v", s.id, m.Type()))
			continue
		}
		g.check(s.tape, rep)

		if w := g.clk.window.Load(); w != window {
			if window >= 0 {
				g.done <- windowBuf{window: window, lat: buf}
				select {
				case buf = <-g.free:
					buf = buf[:0]
				default:
					buf = nil
				}
			}
			window = w
		}
		if window >= 0 {
			buf.add(now.Sub(s.at))
			if g.tr != nil && sampled(s.id) && g.tr.on.Load() {
				end := g.tr.now()
				g.tr.add(span{Name: spanClientRTT, ID: g.tr.ids.Add(1), Req: s.id,
					Start: end - int64(now.Sub(s.at)), End: end})
			}
		}
	}
}

// check validates what can be validated for free — the endpoints of a
// found path — and queues the answer for the oracle unless it repeats the
// previous answer for its key.
func (g *generator) check(tape int32, rep *wire.QueryReply) {
	req := g.in.tape[tape]
	if rep.Found && (len(rep.Path) < 2 || rep.Path[0] != req.Src || rep.Path[len(rep.Path)-1] != req.Dst) {
		g.fail(fmt.Errorf("%v answered with path %v", req, rep.Path))
		return
	}
	key := g.in.keyOf[tape]
	prev := &g.last[key]
	if prev.seen && prev.found == rep.Found && prev.path.Equal(rep.Path) {
		return
	}
	*prev = answer{seen: true, found: rep.Found, path: rep.Path}
	g.pending = append(g.pending, pendingAnswer{key: key, found: rep.Found, path: rep.Path})
}

// controller is the control connection of the churn workload: one
// mutation every interval, fail and restore alternately, round-robin over
// the lateral links, each awaited before the next is due.
type controller struct {
	in       *inputs
	clk      *clock
	cc       *clientConn
	interval time.Duration

	ops    uint64
	failed uint64
	err    error
	// lat holds every timed round trip with the window it completed in
	// and which of the two mutations it was.
	lat []ctlSample
}

type ctlSample struct {
	window  int32
	restore bool
	d       time.Duration
}

// op sends mutation number n of the alternating sequence and returns its
// round-trip time. Even n fails lateral link n/2 (mod the link count), odd
// n restores it, so after an even number of ops every link is up.
func (c *controller) op(n uint64) (time.Duration, error) {
	l := c.in.laterals[int(n/2)%len(c.in.laterals)]
	m := &wire.Control{ID: 1<<63 | n, Op: wire.CtlFail, A: l.A, B: l.B}
	if n%2 == 1 {
		m.Op = wire.CtlRestore
	}
	t0 := time.Now()
	rep, err := c.cc.roundTrip(m)
	d := time.Since(t0)
	c.ops++
	if err != nil {
		return d, err
	}
	cr, ok := rep.(*wire.ControlReply)
	if !ok || cr.ID != m.ID || !cr.OK() {
		return d, fmt.Errorf("control op %d (%v %v-%v) answered %+v", n, m.Op, l.A, l.B, rep)
	}
	return d, nil
}

func (c *controller) do(n uint64, window int32) bool {
	d, err := c.op(n)
	if err != nil {
		c.failed++
		if c.err == nil {
			c.err = err
		}
		return false
	}
	if window >= 0 {
		c.lat = append(c.lat, ctlSample{window: window, restore: n%2 == 1, d: d})
	}
	return true
}

// run paces mutations beside the load until the clock says stop, then
// restores the link it may have left down.
func (c *controller) run() {
	n := uint64(0)
	next := time.Now()
	for !c.clk.stop.Load() {
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		if !c.do(n, c.clk.window.Load()) {
			return
		}
		n++
		if next = next.Add(c.interval); next.Before(time.Now()) {
			next = time.Now() // a late op delays the schedule, it does not bunch it
		}
	}
	if n%2 == 1 {
		c.do(n, -1)
	}
}

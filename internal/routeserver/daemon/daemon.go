package daemon

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// Config parameterizes a Daemon. The zero value is usable: 2048
// connections, 128-message write queues, 2s slow-client grace.
type Config struct {
	// MaxConns bounds concurrent sessions; connections beyond it are
	// refused (closed immediately). Default 2048.
	MaxConns int
	// WriteQueue is the per-session outbound reply queue length: how many
	// encoded replies may wait for the session's writer to take them; a
	// pipelining client that stops reading fills it. Default 128.
	WriteQueue int
	// WriteTimeout is how long a session blocks on a full write queue (or
	// a socket write stays stuck) before the client is declared slow and
	// evicted. Default 2s.
	WriteTimeout time.Duration
}

func (c Config) normalize() Config {
	if c.MaxConns <= 0 {
		c.MaxConns = 2048
	}
	if c.WriteQueue <= 0 {
		c.WriteQueue = 128
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 2 * time.Second
	}
	return c
}

// Metrics is a snapshot of the daemon's connection counters.
type Metrics struct {
	// Accepted counts sessions ever started; Active of them are live now.
	Accepted, Active uint64
	// Refused counts connections closed at the limit or during drain.
	Refused uint64
	// Evicted counts sessions closed for slow consumption.
	Evicted uint64
	// Requests counts dispatched protocol requests.
	Requests uint64
}

// Daemon serves the route-server protocol over any number of listeners.
// All exported methods are safe for concurrent use.
type Daemon struct {
	be  *Backend
	cfg Config

	mu        sync.Mutex
	sessions  map[*session]struct{}
	listeners map[net.Listener]struct{}
	draining  bool

	wg        sync.WaitGroup // live sessions
	drainOnce sync.Once
	done      chan struct{} // closed when a drain completes

	accepted atomic.Uint64
	refused  atomic.Uint64
	evicted  atomic.Uint64
	requests atomic.Uint64

	redirect atomic.Pointer[redirectFunc]
}

// redirectFunc reports whether requests should be redirected and where:
// an HA follower answers Query/Control/DataOp with NotPrimary naming the
// current primary's client address.
type redirectFunc func() (primaryID uint32, addr string, redirect bool)

// New builds a daemon over the backend and wires the backend's stats
// command to this daemon's connection counters.
func New(be *Backend, cfg Config) *Daemon {
	d := &Daemon{
		be:        be,
		cfg:       cfg.normalize(),
		sessions:  make(map[*session]struct{}),
		listeners: make(map[net.Listener]struct{}),
		done:      make(chan struct{}),
	}
	be.SetConnMetrics(d.Metrics)
	return d
}

// SetRedirect installs (or with nil removes) the HA redirect gate: while
// fn reports true, Query/Control/DataOp requests are answered with
// NotPrimary instead of being dispatched. Stats and Drain are always
// served locally — operators can inspect and drain a follower directly.
func (d *Daemon) SetRedirect(fn func() (primaryID uint32, addr string, redirect bool)) {
	if fn == nil {
		d.redirect.Store(nil)
		return
	}
	rf := redirectFunc(fn)
	d.redirect.Store(&rf)
}

// Serve accepts connections on ln until the listener closes. It returns
// nil when the close was a drain, the accept error otherwise. Call it from
// one goroutine per listener.
func (d *Daemon) Serve(ln net.Listener) error {
	d.mu.Lock()
	if d.draining {
		d.mu.Unlock()
		ln.Close()
		return nil
	}
	d.listeners[ln] = struct{}{}
	d.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			d.mu.Lock()
			delete(d.listeners, ln)
			draining := d.draining
			d.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		go d.ServeConn(conn)
	}
}

// ServeConn runs one session over an established connection and blocks
// until it ends. Exported so sessions are testable without sockets (e.g.
// over net.Pipe). The connection is refused — closed immediately — at the
// connection limit or during drain.
func (d *Daemon) ServeConn(conn net.Conn) {
	d.mu.Lock()
	if d.draining || len(d.sessions) >= d.cfg.MaxConns {
		d.mu.Unlock()
		d.refused.Add(1)
		conn.Close()
		return
	}
	s := newSession(d, conn)
	d.sessions[s] = struct{}{}
	d.wg.Add(1)
	d.accepted.Add(1)
	d.mu.Unlock()

	defer func() {
		d.mu.Lock()
		delete(d.sessions, s)
		d.mu.Unlock()
		d.wg.Done()
	}()
	s.run()
}

// stopAccepting is how every shutdown begins: mark the daemon draining (so
// Serve and ServeConn refuse from here on), close the listeners, and return
// the sessions live at that point.
func (d *Daemon) stopAccepting() []*session {
	d.mu.Lock()
	d.draining = true
	lns := make([]net.Listener, 0, len(d.listeners))
	for ln := range d.listeners {
		lns = append(lns, ln)
	}
	sess := make([]*session, 0, len(d.sessions))
	for s := range d.sessions {
		sess = append(sess, s)
	}
	d.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	return sess
}

// Drain shuts the daemon down gracefully: stop accepting, let every
// session finish the request it is processing, flush queued replies, and
// close. Idempotent; blocks until the drain completes. Safe to call from
// inside a session (the Drain protocol message does, via a goroutine).
func (d *Daemon) Drain() {
	d.drainOnce.Do(func() {
		for _, s := range d.stopAccepting() {
			s.beginDrain()
		}
		d.wg.Wait()
		close(d.done)
	})
	<-d.done
}

// Kill shuts the daemon down abruptly: stop accepting and close every
// live session's connection without flushing queued replies — the
// SIGKILL model HA failover is built against (clients observe connection
// errors, not a drain). Blocks until every session goroutine has exited.
// A later Drain still completes (and closes Done) immediately.
func (d *Daemon) Kill() {
	for _, s := range d.stopAccepting() {
		s.close()
	}
	d.wg.Wait()
}

// Done is closed once a drain has completed.
func (d *Daemon) Done() <-chan struct{} { return d.done }

// Metrics snapshots the connection counters.
func (d *Daemon) Metrics() Metrics {
	d.mu.Lock()
	active := len(d.sessions)
	d.mu.Unlock()
	return Metrics{
		Accepted: d.accepted.Load(),
		Active:   uint64(active),
		Refused:  d.refused.Load(),
		Evicted:  d.evicted.Load(),
		Requests: d.requests.Load(),
	}
}

// session is one connection's state. The reader goroutine (run) decodes
// requests out of its read buffer, dispatches each, and encodes the reply
// onto pending; the writer goroutine swaps pending for an empty buffer and
// hands the whole batch to the socket in one Write. Replies therefore leave
// in the order requests arrived, a pipelined burst costs one read and about
// one write, and nothing is allocated or handed over per message. The reader
// appends with backpressure: pending holding WriteQueue replies for longer
// than the write-timeout grace means the client is not consuming, and the
// session is evicted.
type session struct {
	d    *Daemon
	conn net.Conn

	mu      sync.Mutex
	pending []byte // encoded replies the writer has not taken yet
	queued  int    // replies in pending, at most cfg.WriteQueue
	closed  bool   // the reader is done: the writer exits after this batch
	dead    bool   // a socket write failed: no reply can be delivered
	// wake tells the writer pending went non-empty (or closed was set); room
	// tells a reader blocked on a full queue that the writer took a batch.
	// Both carry at most one token, sent without blocking.
	wake, room chan struct{}

	closeOnce sync.Once
}

func newSession(d *Daemon, conn net.Conn) *session {
	return &session{
		d:    d,
		conn: conn,
		wake: make(chan struct{}, 1),
		room: make(chan struct{}, 1),
	}
}

func (s *session) run() {
	writerDone := make(chan struct{})
	go s.writer(writerDone)

	dec := wire.NewDecoder(s.conn)
	var qr wire.QueryReply // reused: send encodes it before the next dispatch
	for {
		m, err := dec.Next()
		if err != nil {
			// EOF, a malformed frame, eviction, or the drain deadline:
			// either way this session takes no more requests. Requests
			// already whole in the read buffer were answered; a partial one
			// is dropped unanswered.
			break
		}
		s.d.requests.Add(1)
		reply, drain := s.d.dispatch(m, &qr)
		if !s.send(reply) {
			break
		}
		if drain {
			// Ack first (already queued), then drain from outside the
			// session: Drain waits for this very session to finish.
			go s.d.Drain()
		}
	}
	// Let the writer flush what is pending, then close the connection.
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	notify(s.wake)
	<-writerDone
	s.close()
}

// notify leaves a token in a one-slot signal channel unless one is there.
func notify(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

// maxSpare caps the buffer capacity a session keeps between batches: a burst
// of large replies (OpState text, plan errors) must not pin its high-water
// mark for the life of the connection.
const maxSpare = 64 << 10

// writer writes pending to the connection, one batch per Write: whatever
// the reader encoded while the previous Write was in the kernel goes out
// together, so pipelined replies batch and an interactive client's lone
// reply leaves at once. The write deadline is armed once per Write.
func (s *session) writer(done chan<- struct{}) {
	defer close(done)
	var spare []byte
	for range s.wake {
		batch, closed := s.take(spare)
		if len(batch) > 0 {
			s.conn.SetWriteDeadline(time.Now().Add(s.d.cfg.WriteTimeout))
			if _, err := s.conn.Write(batch); err != nil {
				s.evict()
				s.mu.Lock()
				s.dead = true
				s.mu.Unlock()
				notify(s.room)
				return
			}
		}
		if closed {
			return
		}
		if spare = batch; cap(spare) > maxSpare {
			spare = nil
		}
	}
}

// take hands the writer everything pending, leaves the emptied spare in its
// place, and tells a reader waiting on a full queue there is room again.
func (s *session) take(spare []byte) (batch []byte, closed bool) {
	s.mu.Lock()
	batch, closed = s.pending, s.closed
	s.pending, s.queued = spare[:0], 0
	s.mu.Unlock()
	notify(s.room)
	return batch, closed
}

// send encodes a reply onto pending, giving a slow client the write-timeout
// grace to make room before evicting it. Reports whether the session should
// go on. m may be reused by the caller as soon as send returns.
func (s *session) send(m wire.Message) bool {
	s.mu.Lock()
	for s.queued >= s.d.cfg.WriteQueue && !s.dead {
		s.mu.Unlock()
		if !s.awaitRoom() {
			return false
		}
		s.mu.Lock()
	}
	if s.dead {
		s.mu.Unlock()
		return false
	}
	first := s.queued == 0
	buf, err := wire.AppendMessage(s.pending, m)
	if err != nil {
		// The reply does not fit a frame. That is this request's failure,
		// not the session's: answer its ID with the error and carry on.
		buf, _ = wire.AppendMessage(buf, &wire.ControlReply{ID: replyID(m), Code: wire.CtlErr, Err: err.Error()})
	}
	s.pending = buf
	s.queued++
	s.mu.Unlock()
	if first {
		notify(s.wake)
	}
	return true
}

// awaitRoom blocks until the writer takes a batch, or evicts the client
// when the write-timeout grace runs out first.
func (s *session) awaitRoom() bool {
	t := time.NewTimer(s.d.cfg.WriteTimeout)
	defer t.Stop()
	select {
	case <-s.room:
		return true
	case <-t.C:
		s.evict()
		return false
	}
}

// replyID returns the request ID a session reply echoes.
func replyID(m wire.Message) uint64 {
	switch r := m.(type) {
	case *wire.QueryReply:
		return r.ID
	case *wire.ControlReply:
		return r.ID
	case *wire.DataOpReply:
		return r.ID
	case *wire.StatsReply:
		return r.ID
	case *wire.PlanReply:
		return r.ID
	case *wire.NotPrimary:
		return r.ID
	}
	return 0
}

// requestID returns the ID of a request the redirect gate covers: Query,
// Control, DataOp and Plan. Stats and Drain are not gated.
func requestID(m wire.Message) (id uint64, gated bool) {
	switch q := m.(type) {
	case *wire.Query:
		return q.ID, true
	case *wire.Control:
		return q.ID, true
	case *wire.DataOp:
		return q.ID, true
	case *wire.Plan:
		return q.ID, true
	}
	return 0, false
}

// evict closes a slow client's connection; the reader and writer unblock
// with errors and the session winds down.
func (s *session) evict() {
	s.closeOnce.Do(func() {
		s.d.evicted.Add(1)
		s.conn.Close()
	})
}

// beginDrain stops the reader from taking new requests: the read deadline
// pops at the next socket read, while the request being dispatched and those
// already whole in the read buffer still complete and their replies are
// flushed before the connection closes.
func (s *session) beginDrain() {
	s.conn.SetReadDeadline(time.Now())
}

func (s *session) close() {
	s.closeOnce.Do(func() { s.conn.Close() })
}

// dispatch is what a daemon adds in front of the one executor,
// Backend.Handle: the HA redirect gate and the Drain ack (the drain result
// asks the session to trigger a daemon drain after the ack is queued).
// Handle's contract on m and *qr, the calling session's reused reply, holds
// here too.
func (d *Daemon) dispatch(m wire.Message, qr *wire.QueryReply) (reply wire.Message, drain bool) {
	if p := d.redirect.Load(); p != nil {
		if rid, gated := requestID(m); gated {
			if id, addr, redir := (*p)(); redir {
				return &wire.NotPrimary{ID: rid, PrimaryID: id, Addr: addr}, false
			}
		}
	}
	if q, ok := m.(*wire.Drain); ok {
		return &wire.ControlReply{ID: q.ID}, true
	}
	return d.be.Handle(m, qr), false
}

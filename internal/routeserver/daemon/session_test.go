package daemon

import (
	"bufio"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/ad"
	"repro/internal/policy"
	"repro/internal/racecheck"
	"repro/internal/routeserver"
	"repro/internal/wire"
)

// mixedRequests returns n requests over the test diamond in which
// neighbours differ — endpoints, hour, routable or not — so a reply built
// from the wrong (reused) request or reply value shows up as a wrong answer.
func mixedRequests(n int) []policy.Request {
	pairs := [][2]uint32{{1, 4}, {4, 1}, {1, 2}, {99, 98}, {2, 4}, {3, 1}, {1, 1}}
	reqs := make([]policy.Request, n)
	for i := range reqs {
		p := pairs[i%len(pairs)]
		reqs[i] = policy.Request{Src: ad.ID(p[0]), Dst: ad.ID(p[1]), Hour: uint8(i % 24)}
	}
	return reqs
}

// pipelineAndCheck writes every request before reading any reply, then
// requires the replies in request order, each with its own ID and the answer
// the backend gives that request directly.
func pipelineAndCheck(t *testing.T, conn net.Conn, be *Backend, reqs []policy.Request) {
	t.Helper()
	bw := bufio.NewWriter(conn)
	for i, req := range reqs {
		if err := wire.WriteMessage(bw, &wire.Query{ID: uint64(1000 + i), Req: req}); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	for i, req := range reqs {
		m, err := wire.ReadMessage(br)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		want := be.Query(req)
		rep, ok := m.(*wire.QueryReply)
		if !ok || rep.ID != uint64(1000+i) || rep.Found != want.Found || !rep.Path.Equal(want.Path) {
			t.Fatalf("reply %d to %+v = %#v, want ID %d and %+v", i, req, m, 1000+i, want)
		}
	}
}

func TestPipelinedRepliesFIFO(t *testing.T) {
	const depth = 64
	t.Run("pipe", func(t *testing.T) {
		be := testWorld(t, nil)
		d := New(be, Config{})
		server, client := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			d.ServeConn(server)
		}()
		pipelineAndCheck(t, client, be, mixedRequests(depth))
		pipelineAndCheck(t, client, be, mixedRequests(depth)[3:]) // now all cache hits
		client.Close()
		<-done
	})
	t.Run("tcp", func(t *testing.T) {
		be := testWorld(t, nil)
		d := New(be, Config{})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go d.Serve(ln)
		defer d.Drain()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		for round := 0; round < 8; round++ {
			pipelineAndCheck(t, conn, be, mixedRequests(depth)[round:])
		}
		if m := d.Metrics(); m.Evicted != 0 {
			t.Fatalf("metrics = %+v", m)
		}
	})
}

// TestSlowClientEvictionTCP: behind real socket buffers a client that stops
// reading stalls the writer's Write, not the queue; the per-Write deadline
// evicts it, once, and the session goes away.
func TestSlowClientEvictionTCP(t *testing.T) {
	be := testWorld(t, nil)
	d := New(be, Config{WriteTimeout: 50 * time.Millisecond})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go d.Serve(ln)
	defer d.Drain()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Pump queries and never read: the kernel's buffers fill, the daemon's
	// Write blocks, and once it has evicted us our own writes fail.
	burst := make([]byte, 0, 64<<10)
	for len(burst) < 60<<10 {
		burst, _ = wire.AppendMessage(burst, &wire.Query{ID: 1, Req: policy.Request{Src: 1, Dst: 4}})
	}
	conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
	for {
		if _, err := conn.Write(burst); err != nil {
			break
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for d.Metrics().Active != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if m := d.Metrics(); m.Evicted != 1 || m.Active != 0 {
		t.Fatalf("metrics after a slow TCP client = %+v", m)
	}
}

// TestDrainAnswersWholeRequestsOnly: a drain lets the session answer every
// request it had received whole — the burst is in its read buffer — and
// nothing of the one still arriving; the reply stream ends on a frame
// boundary.
func TestDrainAnswersWholeRequestsOnly(t *testing.T) {
	be := testWorld(t, nil)
	d := New(be, Config{})
	server, client := net.Pipe()
	go d.ServeConn(server)
	defer client.Close()

	reqs := mixedRequests(64)
	var burst []byte
	for i, req := range reqs {
		burst, _ = wire.AppendMessage(burst, &wire.Query{ID: uint64(i), Req: req})
	}
	half := wire.Marshal(&wire.Query{ID: 999, Req: reqs[0]})[:11]

	// Replies must be consumed for a net.Pipe session to make progress.
	type outcome struct {
		ids []uint64
		err error
	}
	got := make(chan outcome, 1)
	go func() {
		var o outcome
		br := bufio.NewReader(client)
		for {
			m, err := wire.ReadMessage(br)
			if err != nil {
				o.err = err
				got <- o
				return
			}
			o.ids = append(o.ids, m.(*wire.QueryReply).ID)
		}
	}()
	// A pipe Write returns once the session has read it: after these two the
	// burst and the half request are in the daemon's hands.
	if _, err := client.Write(burst); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Write(half); err != nil {
		t.Fatal(err)
	}
	d.Drain()

	o := <-got
	if o.err != io.EOF {
		t.Fatalf("reply stream ended with %v, want a clean EOF", o.err)
	}
	if len(o.ids) != len(reqs) {
		t.Fatalf("%d replies to %d whole requests", len(o.ids), len(reqs))
	}
	for i, id := range o.ids {
		if id != uint64(i) {
			t.Fatalf("reply %d carries ID %d", i, id)
		}
	}
}

func TestFollowerRedirectsEveryRequestKind(t *testing.T) {
	be := testWorld(t, nil)
	d := New(be, Config{})
	d.SetRedirect(func() (uint32, string, bool) { return 2, "10.0.0.2:4242", true })
	cl := pipeSession(t, d)

	redirected := func(what string, err error) {
		t.Helper()
		var np *NotPrimaryError
		if !errors.As(err, &np) || np.PrimaryID != 2 || np.Addr != "10.0.0.2:4242" {
			t.Errorf("%s on a follower: err = %v, want a redirect to replica 2", what, err)
		}
	}
	_, err := cl.Query(policy.Request{Src: 1, Dst: 4})
	redirected("query", err)
	_, err = cl.Control(wire.PlanStep{Op: wire.CtlFail, A: 2, B: 4})
	redirected("control", err)
	_, err = cl.Do(&wire.DataOp{Op: wire.OpInstall, Req: policy.Request{Src: 1, Dst: 4}})
	redirected("data-op", err)
	_, err = cl.Do(&wire.Plan{Steps: []wire.PlanStep{{Op: wire.CtlFail, A: 2, B: 4}}})
	redirected("plan", err)
	_, err = cl.Do(&wire.Plan{Commit: true, PlanID: 1})
	redirected("commit", err)
	// Stats are served locally, and show nothing was dispatched to the backend.
	if st, err := roundTrip[*wire.StatsReply](cl, &wire.StatsQuery{}); err != nil || st.Queries != 0 {
		t.Errorf("stats on a follower = %+v, %v", st, err)
	}
	// The gate lifts: the same session serves.
	d.SetRedirect(nil)
	if res, err := cl.Query(policy.Request{Src: 1, Dst: 4}); err != nil || !res.Found {
		t.Errorf("query after promotion = %+v, %v", res, err)
	}
}

// TestUnencodableReplyFailsItsRequestOnly: a reply too large for a frame
// used to panic in the writer and take the process down with it.
func TestUnencodableReplyFailsItsRequestOnly(t *testing.T) {
	d := New(testWorld(t, nil), Config{})
	server, client := net.Pipe()
	defer client.Close()
	s := newSession(d, server)
	done := make(chan struct{})
	go s.writer(done)

	if !s.send(&wire.DataOpReply{ID: 7, Op: wire.OpState, Text: strings.Repeat("x", 70000)}) {
		t.Fatal("send gave up the session")
	}
	if !s.send(&wire.QueryReply{ID: 8}) {
		t.Fatal("send after an oversize reply gave up the session")
	}
	br := bufio.NewReader(client)
	m, err := wire.ReadMessage(br)
	cr, ok := m.(*wire.ControlReply)
	if err != nil || !ok || cr.ID != 7 || cr.OK() || !strings.Contains(cr.Err, "exceeds maximum size") {
		t.Fatalf("reply to the oversize request = %#v, %v", m, err)
	}
	if m, err = wire.ReadMessage(br); err != nil || m.(*wire.QueryReply).ID != 8 {
		t.Fatalf("next reply = %#v, %v", m, err)
	}
	server.Close()
	s.send(&wire.QueryReply{ID: 9}) // wakes the writer into the closed pipe
	<-done
}

// TestAllocsCachedQuery pins the serving path of a cached answer — decode,
// dispatch, encode, and the writer taking the batch — at no allocation,
// on the default server and on the one cmd/routed builds, which records
// every query in the plan engine's ring. Skipped under -race; `make check`
// and CI run it in a pass without.
func TestAllocsCachedQuery(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, cfg := range []routeserver.Config{{}, {QueryLog: 1024}} {
		be := testWorldConfig(t, nil, cfg)
		d := New(be, Config{})
		reqs := mixedRequests(14)
		var stream []byte
		for i, req := range reqs {
			be.Query(req) // warm: every request below is a hit or a cached no-route
			stream, _ = wire.AppendMessage(stream, &wire.Query{ID: uint64(i), Req: req})
		}
		s := newSession(d, nil)
		dec := wire.NewDecoder(&repeatReader{data: stream})
		var qr wire.QueryReply
		var spare []byte
		var bytesOut int
		if n := testing.AllocsPerRun(2000, func() {
			m, err := dec.Next()
			if err != nil {
				t.Fatal(err)
			}
			reply, _ := d.dispatch(m, &qr)
			if !s.send(reply) {
				t.Fatal("send failed")
			}
			spare, _ = s.take(spare)
			bytesOut += len(spare)
		}); n != 0 {
			t.Errorf("%+v: cached query, decode to encoded reply: %v allocs/op, want 0", cfg, n)
		}
		if bytesOut == 0 {
			t.Error("no reply bytes were produced")
		}
		if got := len(be.srv.RecentQueries()); got != cfg.QueryLog {
			t.Errorf("%+v: the query ring holds %d requests, want %d", cfg, got, cfg.QueryLog)
		}
	}
}

// repeatReader replays a byte string forever.
type repeatReader struct {
	data []byte
	off  int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := copy(p, r.data[r.off:])
	if r.off += n; r.off == len(r.data) {
		r.off = 0
	}
	return n, nil
}

package daemon

import (
	"fmt"
	"io"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ad"
	"repro/internal/pgstate"
	"repro/internal/policy"
	"repro/internal/routeserver"
	"repro/internal/sim"
	"repro/internal/synthesis"
	"repro/internal/wire"
)

// testWorld is the diamond the cmd/routed tests use: a cheap transit (t1),
// an expensive detour (t2).
//
//	src(1) ─ t1(2) ─ dst(4)   (cost 2)
//	src(1) ─ t2(3) ─ dst(4)   (cost 10)
func testWorld(t *testing.T, strat func(*ad.Graph, *policy.DB) synthesis.Strategy) *Backend {
	t.Helper()
	return testWorldConfig(t, strat, routeserver.Config{})
}

func testWorldConfig(t *testing.T, strat func(*ad.Graph, *policy.DB) synthesis.Strategy, cfg routeserver.Config) *Backend {
	t.Helper()
	g := ad.NewGraph()
	src := g.AddAD("src", ad.Stub, ad.Campus)
	t1 := g.AddAD("t1", ad.Transit, ad.Regional)
	t2 := g.AddAD("t2", ad.Transit, ad.Regional)
	dst := g.AddAD("dst", ad.Stub, ad.Campus)
	for _, l := range []ad.Link{
		{A: src, B: t1, Cost: 1}, {A: t1, B: dst, Cost: 1},
		{A: src, B: t2, Cost: 5}, {A: t2, B: dst, Cost: 5},
	} {
		if err := g.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	db := policy.OpenDB(g)
	if strat == nil {
		strat = func(g *ad.Graph, db *policy.DB) synthesis.Strategy {
			return synthesis.NewOnDemand(g, db)
		}
	}
	srv := routeserver.New(strat(g, db), cfg)
	dp, err := routeserver.NewDataPlane(pgstate.Config{Kind: pgstate.Soft, TTL: 30 * sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	return NewBackend(srv, dp, g, db)
}

// pipeSession runs one session over net.Pipe — no sockets — and returns a
// protocol client talking to it.
func pipeSession(t *testing.T, d *Daemon) *Client {
	t.Helper()
	server, client := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		d.ServeConn(server)
	}()
	t.Cleanup(func() {
		client.Close()
		<-done
	})
	return NewClient(client)
}

func TestSessionProtocolRoundTrip(t *testing.T) {
	be := testWorld(t, nil)
	d := New(be, Config{})
	cl := pipeSession(t, d)

	// Query: cheap route, then an unroutable pair.
	res, err := cl.Query(policy.Request{Src: 1, Dst: 4})
	if err != nil || !res.Found || !res.Path.Equal(ad.Path{1, 2, 4}) {
		t.Fatalf("query = %+v, %v", res, err)
	}
	if res, err = cl.Query(policy.Request{Src: 99, Dst: 98}); err != nil || res.Found {
		t.Fatalf("unroutable pair = %+v, %v", res, err)
	}

	// Data plane: install, send, refresh, tick, repair, state.
	dataOp := func(op uint8, handle uint64, arg uint32, req policy.Request) (*wire.DataOpReply, error) {
		return roundTrip[*wire.DataOpReply](cl, &wire.DataOp{Op: op, Handle: handle, Arg: arg, Req: req})
	}
	dr, err := dataOp(wire.OpInstall, 0, 0, policy.Request{Src: 1, Dst: 4})
	if err != nil || dr.Code != wire.DataOK || dr.Handle != 1 || !dr.Path.Equal(ad.Path{1, 2, 4}) {
		t.Fatalf("install = %+v, %v", dr, err)
	}
	if dr, err = dataOp(wire.OpSend, 1, 0, policy.Request{}); err != nil || dr.Code != wire.DataOK {
		t.Fatalf("send = %+v, %v", dr, err)
	}
	if dr, err = dataOp(wire.OpSend, 777, 0, policy.Request{}); err != nil || dr.Code != wire.DataUnknownHandle {
		t.Fatalf("send unknown = %+v, %v", dr, err)
	}
	if dr, err = dataOp(wire.OpRefresh, 0, 0, policy.Request{}); err != nil || dr.N1 != 1 || dr.N2 != 0 {
		t.Fatalf("refresh = %+v, %v", dr, err)
	}
	if dr, err = dataOp(wire.OpTick, 0, 10, policy.Request{}); err != nil || dr.N1 != 10 {
		t.Fatalf("tick = %+v, %v", dr, err)
	}
	if dr, err = dataOp(wire.OpState, 0, 0, policy.Request{}); err != nil || dr.Text == "" {
		t.Fatalf("state = %+v, %v", dr, err)
	}
	if dr, err = dataOp(99, 0, 0, policy.Request{}); err != nil || dr.Code != wire.DataBadOp {
		t.Fatalf("bad op = %+v, %v", dr, err)
	}

	// Control plane: fail evicts the cheap route and flushes the handle,
	// the rerouted query takes the detour, restore retains it.
	cr, err := cl.Control(wire.PlanStep{Op: wire.CtlFail, A: 2, B: 4})
	if err != nil || !cr.OK() || cr.Evicted != 1 || cr.Flushed != 3 {
		t.Fatalf("fail = %+v, %v", cr, err)
	}
	if res, err = cl.Query(policy.Request{Src: 1, Dst: 4}); err != nil || !res.Path.Equal(ad.Path{1, 3, 4}) {
		t.Fatalf("post-failure query = %+v, %v", res, err)
	}
	if dr, err = dataOp(wire.OpRepair, 0, 0, policy.Request{}); err != nil || dr.N1 != 1 || dr.N2 != 1 {
		t.Fatalf("repair = %+v, %v", dr, err)
	}
	if cr, err = cl.Control(wire.PlanStep{Op: wire.CtlRestore, A: 2, B: 4}); err != nil || !cr.OK() || cr.Retained == 0 {
		t.Fatalf("restore = %+v, %v", cr, err)
	}

	// Control errors travel as text, not as broken sessions.
	if cr, err = cl.Control(wire.PlanStep{Op: wire.CtlFail, A: 9, B: 9}); err != nil || cr.OK() || cr.Err != "no link AD9-AD9" {
		t.Fatalf("fail bad link = %+v, %v", cr, err)
	}
	if cr, err = cl.Control(wire.PlanStep{Op: wire.CtlRestore, A: 9, B: 9}); err != nil || cr.OK() || cr.Err != "link AD9-AD9 was not failed here" {
		t.Fatalf("restore unfailed = %+v, %v", cr, err)
	}
	if cr, err = cl.Control(wire.PlanStep{Op: 99}); err != nil || cr.OK() {
		t.Fatalf("unknown control op = %+v, %v", cr, err)
	}

	// Policy: making t1 expensive reroutes through t2 after the scoped
	// eviction.
	if cr, err = cl.Control(wire.OpenPolicy(2, 100)); err != nil || !cr.OK() {
		t.Fatalf("policy = %+v, %v", cr, err)
	}
	if res, err = cl.Query(policy.Request{Src: 1, Dst: 4}); err != nil || !res.Path.Equal(ad.Path{1, 3, 4}) {
		t.Fatalf("post-policy query = %+v, %v", res, err)
	}

	// Invalidate bumps the generation; stats reflect the session's work.
	if cr, err = cl.Control(wire.PlanStep{Op: wire.CtlInvalidate}); err != nil || cr.Gen != 1 {
		t.Fatalf("invalidate = %+v, %v", cr, err)
	}
	st, err := roundTrip[*wire.StatsReply](cl, &wire.StatsQuery{})
	if err != nil || st.Gen != 1 || st.Queries == 0 {
		t.Fatalf("stats = %+v, %v", st, err)
	}

	if got := d.Metrics(); got.Requests == 0 || got.Accepted != 1 || got.Active != 1 {
		t.Fatalf("daemon metrics = %+v", got)
	}
}

func TestSessionRejectsNonRequests(t *testing.T) {
	be := testWorld(t, nil)
	cl := pipeSession(t, New(be, Config{}))
	for _, tc := range []struct {
		name string
		m    wire.Message
		id   uint64
	}{
		// A routing-protocol message is not a serving request: the daemon
		// answers with a control error instead of wedging or closing.
		{"routing message", &wire.DVUpdate{}, 0},
		// Nor is a request for an hour no day has: hour 36 would be served
		// with hour 12's semantics and cached under a second key.
		{"query hour 36", &wire.Query{ID: 7, Req: policy.Request{Src: 1, Dst: 4, Hour: 36}}, 7},
		{"install hour 24", &wire.DataOp{ID: 8, Op: wire.OpInstall, Req: policy.Request{Src: 1, Dst: 4, Hour: 24}}, 8},
	} {
		if err := wire.WriteMessage(cl.bw, tc.m); err != nil {
			t.Fatal(err)
		}
		if err := cl.bw.Flush(); err != nil {
			t.Fatal(err)
		}
		rep, err := wire.ReadMessage(cl.br)
		if err != nil {
			t.Fatal(err)
		}
		cr, ok := rep.(*wire.ControlReply)
		if !ok || cr.OK() || cr.ID != tc.id {
			t.Fatalf("%s: reply = %#v, want a control error echoing ID %d", tc.name, rep, tc.id)
		}
	}
	if s := be.Server().Snapshot(); s.Queries != 0 || be.Server().CacheLen() != 0 {
		t.Fatalf("refused requests reached the server: %d queries, %d cached", s.Queries, be.Server().CacheLen())
	}
}

func TestConnectionLimitRefuses(t *testing.T) {
	be := testWorld(t, nil)
	d := New(be, Config{MaxConns: 1})
	cl := pipeSession(t, d)
	if _, err := cl.Query(policy.Request{Src: 1, Dst: 4}); err != nil {
		t.Fatal(err)
	}

	// The second connection is refused: closed before any reply.
	server, client := net.Pipe()
	go d.ServeConn(server)
	defer client.Close()
	over := NewClient(client)
	if _, err := over.Query(policy.Request{Src: 1, Dst: 4}); err == nil {
		t.Fatal("query over the connection limit succeeded")
	}
	if m := d.Metrics(); m.Refused != 1 || m.Active != 1 {
		t.Fatalf("metrics after refusal = %+v", m)
	}
}

func TestSlowClientEviction(t *testing.T) {
	be := testWorld(t, nil)
	d := New(be, Config{WriteQueue: 1, WriteTimeout: 20 * time.Millisecond})
	server, client := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		d.ServeConn(server)
	}()
	defer client.Close()

	// Pipeline requests without ever reading replies: the write queue
	// fills, the grace expires, and the daemon evicts the session rather
	// than blocking its reader forever.
	for i := 0; i < 16; i++ {
		if err := wire.WriteMessage(client, &wire.Query{ID: uint64(i), Req: policy.Request{Src: 1, Dst: 4}}); err != nil {
			break // the eviction closed the pipe under us: exactly the point
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("slow client was never evicted")
	}
	if m := d.Metrics(); m.Evicted != 1 {
		t.Fatalf("metrics after slow client = %+v", m)
	}
}

// stallStrategy blocks one Route call so a drain can be triggered while
// the request is provably in flight.
type stallStrategy struct {
	synthesis.Strategy
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (s *stallStrategy) Route(req policy.Request) (ad.Path, bool) {
	if s.armed.CompareAndSwap(true, false) {
		close(s.entered)
		<-s.release
	}
	return s.Strategy.Route(req)
}

func TestDrainFinishesInFlight(t *testing.T) {
	stall := &stallStrategy{entered: make(chan struct{}), release: make(chan struct{})}
	be := testWorld(t, func(g *ad.Graph, db *policy.DB) synthesis.Strategy {
		stall.Strategy = synthesis.NewOnDemand(g, db)
		return stall
	})
	stall.armed.Store(true)
	d := New(be, Config{})
	cl := pipeSession(t, d)

	type answer struct {
		res routeserver.Result
		err error
	}
	got := make(chan answer, 1)
	go func() {
		res, err := cl.Query(policy.Request{Src: 1, Dst: 4})
		got <- answer{res, err}
	}()
	<-stall.entered

	// Drain while the query is mid-synthesis: the session must finish the
	// request and flush the reply before closing.
	drained := make(chan struct{})
	go func() {
		d.Drain()
		close(drained)
	}()
	time.Sleep(10 * time.Millisecond) // let the drain reach the session
	close(stall.release)

	select {
	case a := <-got:
		if a.err != nil || !a.res.Found || !a.res.Path.Equal(ad.Path{1, 2, 4}) {
			t.Fatalf("in-flight query lost to drain: %+v, %v", a.res, a.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight reply never arrived")
	}
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("drain never completed")
	}

	// After the drain the session is gone and new connections are refused.
	if _, err := wire.ReadMessage(cl.br); err != io.EOF {
		t.Fatalf("post-drain read = %v, want EOF", err)
	}
	server, client := net.Pipe()
	go d.ServeConn(server)
	defer client.Close()
	if _, err := wire.ReadMessage(client); err != io.EOF {
		t.Fatalf("post-drain connection not refused: %v", err)
	}
}

func TestDrainMessageOverTCP(t *testing.T) {
	be := testWorld(t, nil)
	d := New(be, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- d.Serve(ln) }()

	cl, err := Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Query(policy.Request{Src: 1, Dst: 4}); err != nil {
		t.Fatal(err)
	}
	// The Drain message is acked first, then the daemon winds down: the
	// listener closes (Serve returns nil, not an accept error) and the
	// connection reaches EOF.
	if cr, err := roundTrip[*wire.ControlReply](cl, &wire.Drain{}); err != nil || !cr.OK() {
		t.Fatalf("drain = %+v, %v", cr, err)
	}
	select {
	case <-d.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("drain message did not complete a drain")
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve returned %v for a drain close", err)
	}
	if _, err := wire.ReadMessage(cl.br); err != io.EOF {
		t.Fatalf("post-drain read = %v, want EOF", err)
	}
}

// TestConcurrentSessionsAcrossScopedMutation is the race-detector workout
// for the network path: concurrent connections query while another
// connection interleaves scoped link failures/restorations and policy
// changes. Every reply must be a legal answer for the topology interval it
// was computed in — here simply: no errors, and the counters add up.
func TestConcurrentSessionsAcrossScopedMutation(t *testing.T) {
	be := testWorld(t, nil)
	d := New(be, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go d.Serve(ln)
	defer d.Drain()

	const clients = 4
	const rounds = 100
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			for i := 0; i < rounds; i++ {
				res, err := cl.Query(policy.Request{Src: 1, Dst: 4})
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				if res.Found && !res.Path.Equal(ad.Path{1, 2, 4}) && !res.Path.Equal(ad.Path{1, 3, 4}) {
					t.Errorf("impossible path %v", res.Path)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctl, err := Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Error(err)
			return
		}
		defer ctl.Close()
		for i := 0; i < 10; i++ {
			if _, err := ctl.Control(wire.PlanStep{Op: wire.CtlFail, A: 2, B: 4}); err != nil {
				t.Errorf("fail: %v", err)
				return
			}
			if _, err := ctl.Control(wire.PlanStep{Op: wire.CtlRestore, A: 2, B: 4}); err != nil {
				t.Errorf("restore: %v", err)
				return
			}
			if _, err := ctl.Control(wire.OpenPolicy(3, uint32(5+i%3))); err != nil {
				t.Errorf("policy: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	st, err := func() (*wire.StatsReply, error) {
		cl, err := Dial("tcp", ln.Addr().String())
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		return roundTrip[*wire.StatsReply](cl, &wire.StatsQuery{})
	}()
	if err != nil {
		t.Fatal(err)
	}
	if st.Queries < clients*rounds {
		t.Fatalf("stats lost queries: %+v", st)
	}
	if st.Hits+st.Coalesced+st.Misses != st.Queries {
		t.Fatalf("counter accounting broken under churn: %+v", st)
	}
}

// unixDaemon serves be on a unix socket and returns the generator's wire
// dialler plus a dedicated control connection for its events.
func unixDaemon(t *testing.T, be *Backend) (*Daemon, func(int) routeserver.Client, *Failover) {
	t.Helper()
	d := New(be, Config{})
	sock := filepath.Join(t.TempDir(), "routed.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	go d.Serve(ln)
	t.Cleanup(d.Drain)
	ctl := DialFailover("unix", []string{sock}, 2*time.Second, 1)
	t.Cleanup(func() { ctl.Close() })
	return d, func(i int) routeserver.Client {
		return DialFailover("unix", []string{sock}, 2*time.Second, 1+int64(i))
	}, ctl
}

func TestLoadRunAgainstDaemon(t *testing.T) {
	d, dial, ctl := unixDaemon(t, testWorld(t, nil))
	workload := make([]policy.Request, 200)
	for i := range workload {
		workload[i] = policy.Request{Src: 1, Dst: 4, Hour: uint8(i % 4)}
	}
	fire := func(op wire.PlanStep) func() error { return func() error { return ctl.Control(op) } }
	rep := routeserver.Run(dial, workload, routeserver.LoadConfig{
		Clients:        8,
		ReconnectEvery: 10,
		Events: []routeserver.Event{
			{After: 0.3, Fire: fire(wire.PlanStep{Op: wire.CtlFail, A: 2, B: 4})},
			{After: 0.6, Fire: fire(wire.PlanStep{Op: wire.CtlRestore, A: 2, B: 4})},
		},
	})
	if rep.Errors != 0 || len(rep.EventErrors) != 0 {
		t.Fatalf("load run hit %d errors, event errors %v: %+v", rep.Errors, rep.EventErrors, rep)
	}
	if rep.Served != rep.Requests {
		t.Fatalf("served %d of %d", rep.Served, rep.Requests)
	}
	if rep.Reconnects == 0 {
		t.Fatal("connection churn never reconnected")
	}
	if rep.QPS <= 0 || rep.Latency.P99 <= 0 {
		t.Fatalf("report missing rates: %+v", rep)
	}
	if m := d.Metrics(); m.Accepted < 8 || m.Requests < uint64(len(workload)) {
		t.Fatalf("daemon metrics = %+v", m)
	}
}

// TestLoadRunParityInProcessVsWire pins that the two load modes are one
// harness: the same world, workload and client count through the in-process
// dialler and through a real daemon over a unix socket count the same
// answers, both survive the -churn fail/restore pair with every request
// answered, and an event the world refuses — or that cannot be sent — lands
// in the report on both.
func TestLoadRunParityInProcessVsWire(t *testing.T) {
	var workload []policy.Request
	for i := 0; i < 300; i++ {
		// One pair in three has no route (AD 9 does not exist).
		workload = append(workload, policy.Request{Src: 1, Dst: ad.ID(4 + 5*(i%3/2)), Hour: uint8(i % 5)})
	}
	fail, restore := wire.PlanStep{Op: wire.CtlFail, A: 2, B: 4}, wire.PlanStep{Op: wire.CtlRestore, A: 2, B: 4}
	type mode struct {
		name    string
		dial    func(int) routeserver.Client
		control func(wire.PlanStep) error
	}
	modes := func() []mode {
		local := testWorld(t, nil)
		_, dial, ctl := unixDaemon(t, testWorld(t, nil))
		return []mode{
			{"in-process", routeserver.InProcess(local.Server()), func(op wire.PlanStep) error {
				_, err := local.Control(op)
				return err
			}},
			{"wire", dial, ctl.Control},
		}
	}
	timeline := func(m mode, ops ...wire.PlanStep) []routeserver.Event {
		var evs []routeserver.Event
		for i, op := range ops {
			evs = append(evs, routeserver.Event{
				After: float64(i+1) / float64(len(ops)+1),
				Fire:  func() error { return m.control(op) },
			})
		}
		return evs
	}

	var quiet []routeserver.Report
	for _, m := range modes() {
		rep := routeserver.Run(m.dial, workload, routeserver.LoadConfig{Clients: 4})
		if rep.Errors != 0 || rep.Served+rep.NoRoute != rep.Requests || rep.NoRoute != 100 {
			t.Fatalf("%s, no events: %+v", m.name, rep)
		}
		quiet = append(quiet, rep)
	}
	if quiet[0].Served != quiet[1].Served || quiet[0].NoRoute != quiet[1].NoRoute {
		t.Fatalf("in-process served/no-route %d/%d, wire %d/%d",
			quiet[0].Served, quiet[0].NoRoute, quiet[1].Served, quiet[1].NoRoute)
	}

	for _, m := range modes() {
		rep := routeserver.Run(m.dial, workload, routeserver.LoadConfig{
			Clients: 4, Events: timeline(m, fail, restore),
		})
		if rep.Errors != 0 || len(rep.EventErrors) != 0 || rep.Served+rep.NoRoute != rep.Requests {
			t.Fatalf("%s, churn pair: %+v", m.name, rep)
		}
		// A restore with no fail before it is refused; the fail after it
		// still fires, so the refusal is reported and nothing is dropped.
		rep = routeserver.Run(m.dial, workload, routeserver.LoadConfig{
			Clients: 4, Events: timeline(m, restore, fail),
		})
		if len(rep.EventErrors) != 1 || !strings.Contains(rep.EventErrors[0].Error(), "event 1: link AD2-AD4 was not failed here") {
			t.Fatalf("%s: refused event reported as %v", m.name, rep.EventErrors)
		}
		if err := m.control(fail); err == nil || !strings.Contains(err.Error(), "no link") {
			t.Fatalf("%s: the event after the refused one never fired (second fail: %v)", m.name, err)
		}
	}

	// Unsendable: the control connection's daemon is gone.
	gone := DialFailover("unix", []string{filepath.Join(t.TempDir(), "nobody.sock")}, 50*time.Millisecond, 1)
	rep := routeserver.Run(routeserver.InProcess(testWorld(t, nil).Server()), workload[:20], routeserver.LoadConfig{
		Events: []routeserver.Event{{After: 0.5, Fire: func() error { return gone.Control(fail) }}},
	})
	if len(rep.EventErrors) != 1 {
		t.Fatalf("unsendable event reported as %v", rep.EventErrors)
	}
}

// TestLinkOf pins the resolver's link lookup through the backend: it is
// order-insensitive (the graph stores the canonical form), a restore brings
// back the link a fail took, cost and all, and an absent link is refused.
func TestLinkOf(t *testing.T) {
	g := ad.NewGraph()
	a := g.AddAD("a", ad.Stub, ad.Campus)
	b := g.AddAD("b", ad.Stub, ad.Campus)
	if err := g.AddLink(ad.Link{A: a, B: b, Cost: 3}); err != nil {
		t.Fatal(err)
	}
	srv := routeserver.New(synthesis.NewOnDemand(g, policy.OpenDB(g)), routeserver.Config{})
	dp, err := routeserver.NewDataPlane(pgstate.Config{Kind: pgstate.Hard})
	if err != nil {
		t.Fatal(err)
	}
	be := NewBackend(srv, dp, g, policy.OpenDB(g))
	if _, _, _, err := be.Fail(b, a); err != nil || g.HasLink(a, b) {
		t.Fatalf("Fail(b, a) = %v, link still up: %v", err, g.HasLink(a, b))
	}
	if _, _, err := be.Restore(a, b); err != nil {
		t.Fatal(err)
	}
	if l, ok := g.LinkBetween(b, a); !ok || l.Cost != 3 {
		t.Errorf("restored link = %+v %v, want cost 3", l, ok)
	}
	if _, _, _, err := be.Fail(a, 99); err == nil {
		t.Error("Fail found a nonexistent link")
	}
}

// roundTrip sends m through cl.Do and wants a reply of type R.
func roundTrip[R wire.Message](cl *Client, m wire.Message) (R, error) {
	rep, err := cl.Do(m)
	r, ok := rep.(R)
	if err == nil && !ok {
		err = fmt.Errorf("reply %T to %v", rep, m.Type())
	}
	return r, err
}

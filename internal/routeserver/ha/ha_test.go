package ha

import (
	"bufio"
	"fmt"
	"net"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/ad"
	"repro/internal/pgstate"
	"repro/internal/policy"
	"repro/internal/routeserver"
	"repro/internal/routeserver/daemon"
	"repro/internal/sim"
	"repro/internal/synthesis"
	"repro/internal/topology"
	"repro/internal/trafficgen"
	"repro/internal/wire"
)

// world builds a moderate internet, a restricted policy regime, and a
// workload (the routeserver testbed recipe).
func world(seed int64, requests int) (*ad.Graph, *policy.DB, []policy.Request) {
	topo := topology.Generate(topology.Config{
		Seed: seed, Backbones: 2, RegionalsPerBackbone: 3,
		CampusesPerParent: 3, LateralProb: 0.25, BypassProb: 0.1,
	})
	g := topo.Graph
	db := policy.Generate(g, policy.GenConfig{
		Seed: seed + 1, SourceRestrictionProb: 0.4, SourceFraction: 0.5,
	})
	workload := trafficgen.Generate(g, trafficgen.Config{
		Seed: seed + 2, Requests: requests, StubsOnly: true,
		Model: "zipf", ZipfS: 1.4, QOSClasses: 2, UCIClasses: 2,
	})
	return g, db, workload
}

// replica is one group member's full stack, cloned from the shared world
// so failure injection on the primary reaches followers only through the
// sync stream.
type replica struct {
	node *Node
	be   *daemon.Backend
	srv  *routeserver.Server
	g    *ad.Graph
	db   *policy.DB
	d    *daemon.Daemon
	// clientAddr is the serving daemon's address ("" without daemons).
	clientAddr string
}

// newGroup builds and starts an N-replica group over clones of (g, db).
// Listeners bind 127.0.0.1:0 first so peers exchange real addresses.
// strat (nil = on-demand) builds each replica's synthesis strategy.
func newGroup(t *testing.T, count int, g *ad.Graph, db *policy.DB, withDaemons bool,
	strat func(*ad.Graph, *policy.DB) synthesis.Strategy, tweak func(*Config)) []*replica {
	if strat == nil {
		strat = func(g *ad.Graph, db *policy.DB) synthesis.Strategy {
			return synthesis.NewOnDemand(g, db)
		}
	}
	t.Helper()
	lns := make([]net.Listener, count)
	peers := make([]Peer, count)
	dlns := make([]net.Listener, count)
	for i := 0; i < count; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		peers[i] = Peer{ID: uint32(i + 1), HAAddr: ln.Addr().String()}
		if withDaemons {
			dln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			dlns[i] = dln
			peers[i].ClientAddr = dln.Addr().String()
		}
	}
	reps := make([]*replica, count)
	for i := 0; i < count; i++ {
		gc := g.Clone()
		dbc := db.Clone()
		srv := routeserver.New(strat(gc, dbc), routeserver.Config{})
		dp, err := routeserver.NewDataPlane(pgstate.Config{Kind: pgstate.Soft, TTL: 30 * sim.Second})
		if err != nil {
			t.Fatal(err)
		}
		be := daemon.NewBackend(srv, dp, gc, dbc)
		var d *daemon.Daemon
		addr := ""
		if withDaemons {
			d = daemon.New(be, daemon.Config{})
			addr = dlns[i].Addr().String()
			dln := dlns[i]
			go d.Serve(dln)
		}
		cfg := Config{
			ID: uint32(i + 1), Peers: peers,
			HeartbeatEvery:   10 * time.Millisecond,
			HeartbeatTimeout: 80 * time.Millisecond,
			Listener:         lns[i],
		}
		if tweak != nil {
			tweak(&cfg)
		}
		node, err := NewNode(cfg, be, d)
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = &replica{node: node, be: be, srv: srv, g: gc, db: dbc, d: d, clientAddr: addr}
	}
	for _, r := range reps {
		r.node.Start()
	}
	t.Cleanup(func() {
		for _, r := range reps {
			r.node.Stop()
			if r.d != nil {
				r.d.Kill()
			}
		}
	})
	return reps
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", msg)
}

// synced reports whether follower has applied everything primary logged.
func synced(primary, follower *replica) bool {
	latest := primary.node.BacklogLatest()
	return latest > 0 && follower.node.AppliedSeq() == latest
}

// dumpMap indexes a cache dump by key.
func dumpMap(srv *routeserver.Server) map[routeserver.Key]routeserver.Result {
	m := make(map[routeserver.Key]routeserver.Result)
	for _, e := range srv.DumpEntries(nil) {
		m[e.Key] = e.Res
	}
	return m
}

func TestReplicationStreamsWarmCache(t *testing.T) {
	g, db, workload := world(31, 300)
	reps := newGroup(t, 2, g, db, false, nil, nil)
	prim, fol := reps[0], reps[1]

	routeserver.ServePhase(prim.srv, workload, 4)
	waitFor(t, 5*time.Second, func() bool { return synced(prim, fol) }, "follower sync")

	want := dumpMap(prim.srv)
	got := dumpMap(fol.srv)
	if len(want) == 0 || len(got) != len(want) {
		t.Fatalf("follower cache has %d entries, primary %d", len(got), len(want))
	}
	for k, res := range want {
		fres, ok := got[k]
		if !ok || fres.Found != res.Found || !fres.Path.Equal(res.Path) {
			t.Fatalf("key %+v: follower %+v, primary %+v (present %v)", k, fres, res, ok)
		}
	}
}

// TestTermListOpReplicates: a policy op carrying a real term list — not the
// open term "policy AD COST" spells — reaches the follower through the sync
// stream like any other control op: after quiesce both caches hold the same
// entries, and the pair the new terms cut off gets the primary's answer from
// the follower too.
func TestTermListOpReplicates(t *testing.T) {
	g, db, workload := world(37, 300)
	reps := newGroup(t, 2, g, db, false, nil, nil)
	prim, fol := reps[0], reps[1]
	routeserver.ServePhase(prim.srv, workload, 4)

	// The first served route with a transit hop: that transit stops
	// admitting the route's source.
	var cut policy.Request
	var was ad.Path
	for _, req := range workload {
		if res := prim.be.Query(req); res.Found && len(res.Path) > 2 {
			cut, was = req, res.Path
			break
		}
	}
	if was == nil {
		t.Fatal("workload has no transit route")
	}
	only := policy.OpenTerm(was[1], 0)
	only.Sources = policy.SetOf(cut.Dst)
	night := policy.OpenTerm(was[1], 0)
	night.Sources, night.Hours = policy.SetOf(cut.Dst, was[1]), policy.HourWindow{Start: 22, End: 6}
	eff, err := prim.be.Control(wire.PlanStep{Op: wire.CtlPolicy, A: was[1], Terms: []policy.Term{only, night}})
	if err != nil || eff.Evicted == 0 {
		t.Fatalf("term-list op: %+v, %v; want evictions", eff, err)
	}
	waitFor(t, 5*time.Second, func() bool { return synced(prim, fol) }, "follower sync")

	got, want := fol.db.Terms(was[1]), prim.db.Terms(was[1])
	if len(got) != 2 || len(want) != 2 {
		t.Fatalf("terms at %v: follower %+v, primary %+v, want two each", was[1], got, want)
	}
	for i := range want {
		if got[i].Serial != want[i].Serial || !got[i].EqualContent(want[i]) {
			t.Fatalf("follower term %+v, primary %+v", got[i], want[i])
		}
	}
	if got, want := dumpMap(fol.srv), dumpMap(prim.srv); !reflect.DeepEqual(got, want) {
		t.Fatalf("follower cache has %d entries, primary %d, or they differ", len(got), len(want))
	}
	now := prim.be.Query(cut)
	if now.Found && now.Path.Equal(was) {
		t.Fatalf("primary still serves %v after %v cut its source off", was, was[1])
	}
	if got := fol.be.Query(cut); got.Found != now.Found || !got.Path.Equal(now.Path) {
		t.Fatalf("follower answers %+v for the cut pair, primary %+v", got, now)
	}
}

// TestBacklogCutoverToSnapshot drives the sender over a raw wire
// connection: a cursor behind the put-trim horizon must get a snapshot
// (marker, entries, done), a cursor at the tip must get incremental
// entries with no snapshot.
func TestBacklogCutoverToSnapshot(t *testing.T) {
	g, db, workload := world(33, 400)
	reps := newGroup(t, 1, g, db, false, nil, func(c *Config) { c.BacklogCap = 8 })
	prim := reps[0]

	// Warm well past the cap so old puts are trimmed.
	routeserver.ServePhase(prim.srv, workload, 4)
	bl := prim.node.currentBacklog()
	if bl.trimmedThrough == 0 {
		t.Fatalf("workload did not overflow the backlog cap (latest %d)", bl.latest())
	}

	dial := func(from uint64) (net.Conn, *bufio.Reader) {
		conn, err := net.Dial("tcp", prim.node.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		bw := bufio.NewWriter(conn)
		if err := wire.WriteMessage(bw, &wire.Hello{
			ReplicaID: 99, Mode: wire.ModeSync, FromSeq: from,
		}); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		return conn, bufio.NewReader(conn)
	}

	// Laggard cursor: strictly between genesis and the trim horizon.
	_, br := dial(1)
	m, err := wire.ReadMessage(br)
	if err != nil {
		t.Fatal(err)
	}
	snap, ok := m.(*wire.SyncSnapshot)
	if !ok || snap.Done {
		t.Fatalf("laggard's first message = %#v, want snapshot marker", m)
	}
	for i := uint32(0); i < snap.Count; i++ {
		if m, err = wire.ReadMessage(br); err != nil {
			t.Fatalf("snapshot entry %d: %v", i, err)
		}
		e, ok := m.(*wire.SyncEntry)
		if !ok {
			t.Fatalf("snapshot entry %d = %#v", i, m)
		}
		if e.Op == wire.SyncPut && e.Seq != snap.Seq {
			t.Fatalf("snapshot put carries seq %d, want cut seq %d", e.Seq, snap.Seq)
		}
	}
	if m, err = wire.ReadMessage(br); err != nil {
		t.Fatal(err)
	}
	if done, ok := m.(*wire.SyncSnapshot); !ok || !done.Done || done.Seq != snap.Seq {
		t.Fatalf("after %d entries got %#v, want done marker at %d", snap.Count, m, snap.Seq)
	}

	// Tip cursor: the next insert arrives incrementally, no snapshot.
	_, br2 := dial(prim.node.BacklogLatest())
	var fresh policy.Request
	seen := map[routeserver.Key]bool{}
	for _, r := range workload {
		seen[r] = true
	}
	for _, r := range workload {
		r.Dst, r.Src = r.Src, r.Dst
		if !seen[r] {
			fresh = r
			break
		}
	}
	prim.be.Query(fresh)
	if m, err = wire.ReadMessage(br2); err != nil {
		t.Fatal(err)
	}
	if e, ok := m.(*wire.SyncEntry); !ok || e.Op != wire.SyncPut {
		t.Fatalf("tip cursor's first message = %#v, want incremental put", m)
	}
}

func TestHeartbeatLossPromotesLowestLiveReplica(t *testing.T) {
	g, db, workload := world(35, 200)
	reps := newGroup(t, 3, g, db, false, nil, nil)
	prim, r2, r3 := reps[0], reps[1], reps[2]

	routeserver.ServePhase(prim.srv, workload, 4)
	waitFor(t, 5*time.Second, func() bool { return synced(prim, r2) && synced(prim, r3) }, "followers sync")
	warm := r2.srv.CacheLen()
	if warm == 0 {
		t.Fatal("follower cache cold before kill")
	}

	prim.node.Kill()

	// Replica 2 — the lowest live ID — must promote; replica 3 must not,
	// and must adopt 2 as primary under a bumped epoch.
	waitFor(t, 5*time.Second, func() bool {
		return r2.node.IsPrimary() && !r3.node.IsPrimary() && r3.node.Primary() == 2
	}, "replica 2 promotion")
	if e := r2.node.Epoch(); e < 2 {
		t.Fatalf("promotion did not bump epoch: %d", e)
	}
	if r2.srv.CacheLen() < warm {
		t.Fatalf("promotion lost warm state: %d -> %d entries", warm, r2.srv.CacheLen())
	}

	// Replication resumes under the new primary: replica 3 resyncs into
	// the new epoch's sequence space. (The promoted cache is warm, so
	// plain re-queries would hit and log nothing — force misses with a
	// replicated full invalidation.)
	if _, err := r2.be.Control(wire.PlanStep{Op: wire.CtlInvalidate}); err != nil {
		t.Fatal(err)
	}
	routeserver.ServePhase(r2.srv, workload[:50], 4)
	waitFor(t, 5*time.Second, func() bool { return synced(r2, r3) }, "resync to new primary")
}

func TestNotPrimaryRedirect(t *testing.T) {
	g, db, workload := world(37, 100)
	reps := newGroup(t, 2, g, db, true, nil, nil)
	prim, fol := reps[0], reps[1]

	// A plain client on the follower is redirected, with the primary's
	// client address in the error; stats are still served locally.
	cl, err := daemon.Dial("tcp", fol.clientAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, err = cl.Query(workload[0])
	np, ok := err.(*daemon.NotPrimaryError)
	if !ok {
		t.Fatalf("query on follower = %v, want NotPrimaryError", err)
	}
	if np.PrimaryID != 1 || np.Addr != prim.clientAddr {
		t.Fatalf("redirect names %d at %q, want 1 at %q", np.PrimaryID, np.Addr, prim.clientAddr)
	}
	if _, err := cl.Stats(); err != nil {
		t.Fatalf("stats on follower: %v", err)
	}

	// A failover client aimed at the follower transparently follows the
	// redirect and answers from the primary.
	fc := daemon.DialFailover("tcp", []string{fol.clientAddr, prim.clientAddr}, 2*time.Second, 7)
	defer fc.Close()
	res, err := fc.Query(workload[0])
	if err != nil {
		t.Fatalf("failover query: %v", err)
	}
	want := synthesis.FindRoute(prim.g, prim.db, workload[0])
	if res.Found != want.Found || (want.Found && !res.Path.Equal(want.Path)) {
		t.Fatalf("failover query = %+v, oracle %+v", res, want)
	}
	if st := fc.RecoveryStats(); st.Redirects == 0 {
		t.Fatalf("failover stats %+v, want a redirect", st)
	}
}

func TestDrainDuringFailover(t *testing.T) {
	g, db, workload := world(39, 100)
	reps := newGroup(t, 2, g, db, true, nil, nil)
	prim, fol := reps[0], reps[1]

	routeserver.ServePhase(prim.srv, workload, 4)
	waitFor(t, 5*time.Second, func() bool { return synced(prim, fol) }, "follower sync")

	// Kill the primary; while the follower's election clock is still
	// running, drain it directly. The drain must be served (acked, then
	// completed) even though the replica is mid-failover.
	prim.node.Kill()
	cl, err := daemon.Dial("tcp", fol.clientAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Drain(); err != nil {
		t.Fatalf("drain during failover: %v", err)
	}
	select {
	case <-fol.d.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("drain did not complete during failover")
	}
	// The replication machinery is independent of the serving daemon:
	// the drained follower still promotes.
	waitFor(t, 5*time.Second, func() bool { return fol.node.IsPrimary() }, "drained follower promotion")
}

// TestLoadRunSurvivesPrimaryKill drives a load run through failover clients
// while the primary of a warm three-replica group dies a quarter of the way
// in: every request must still be answered, served or no-route, and none may
// be lost to the failover. Reconnects > 0 proves the kill landed mid-run.
func TestLoadRunSurvivesPrimaryKill(t *testing.T) {
	g, db, workload := world(43, 3000)
	reps := newGroup(t, 3, g, db, true, nil, nil)
	prim := reps[0]
	routeserver.ServePhase(prim.srv, workload[:500], 4)
	waitFor(t, 5*time.Second, func() bool { return synced(prim, reps[1]) && synced(prim, reps[2]) }, "followers sync")

	addrs := []string{reps[0].clientAddr, reps[1].clientAddr, reps[2].clientAddr}
	rep := routeserver.Run(func(c int) routeserver.Client {
		return daemon.DialFailover("tcp", addrs, 2*time.Second, int64(c))
	}, workload, routeserver.LoadConfig{
		Clients: 16,
		Events:  []routeserver.Event{{After: 0.25, Fire: func() error { prim.node.Kill(); return nil }}},
	})
	if rep.Errors != 0 {
		t.Fatalf("load run hit %d errors across the failover", rep.Errors)
	}
	if rep.Served+rep.NoRoute != rep.Requests {
		t.Fatalf("accounting: %d served + %d no-route != %d requests", rep.Served, rep.NoRoute, rep.Requests)
	}
	if rep.Reconnects == 0 {
		t.Fatalf("no client reconnected: the kill did not land mid-run (%+v)", rep)
	}
}

// slowStrategy widens the synthesis window so computations straddle
// concurrent mutations and snapshot cuts.
type slowStrategy struct {
	synthesis.Strategy
	delay time.Duration
}

func (s slowStrategy) Route(req policy.Request) (ad.Path, bool) {
	time.Sleep(s.delay)
	return s.Strategy.Route(req)
}

// TestSyncSnapshotUnderConcurrentScopedMutations is the replication
// race-detector workout: while the primary serves a concurrent workload
// and a churn goroutine interleaves scoped link failures, restorations,
// and policy changes, a follower with a tiny backlog cap syncs — forced
// through snapshot cutovers mid-churn. The follower must converge to the
// primary's exact world state, and every synced cache entry must be
// legal in it.
func TestSyncSnapshotUnderConcurrentScopedMutations(t *testing.T) {
	g, db, workload := world(41, 300)
	target := ad.ID(0)
	for _, info := range g.ADs() {
		if info.Class == ad.Transit && len(db.Terms(info.ID)) > 0 {
			target = info.ID
			break
		}
	}
	if target == 0 {
		t.Fatal("no transit with terms")
	}
	links := g.Links()
	lat := links[len(links)-1]

	reps := newGroup(t, 2, g, db, false,
		func(g *ad.Graph, db *policy.DB) synthesis.Strategy {
			return slowStrategy{synthesis.NewOnDemand(g, db), 20 * time.Microsecond}
		},
		func(c *Config) { c.BacklogCap = 16 })
	prim, fol := reps[0], reps[1]

	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := c; i < len(workload); i += 4 {
					prim.be.Query(workload[i])
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			if _, _, _, err := prim.be.Fail(lat.A, lat.B); err != nil {
				panic(err)
			}
			if _, _, err := prim.be.Restore(lat.A, lat.B); err != nil {
				panic(err)
			}
			prim.be.Control(wire.OpenPolicy(target, uint32(10+i)))
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()

	waitFor(t, 10*time.Second, func() bool { return synced(prim, fol) }, "follower convergence")

	// World convergence: the follower's graph holds exactly the primary's
	// links (every fail/restore replayed).
	if got, want := linkSet(fol.g), linkSet(prim.g); got != want {
		t.Fatalf("follower links diverged:\n got %s\nwant %s", got, want)
	}
	// Every synced entry is legal in the converged world: positives carry
	// valid, policy-legal paths; negatives only where no route exists.
	checked := 0
	for _, e := range fol.srv.DumpEntries(nil) {
		req := e.Key
		if e.Res.Found {
			if !e.Res.Path.Valid(fol.g) || !fol.db.PathLegal(e.Res.Path, req) {
				t.Fatalf("synced entry %v -> %v is illegal", req, e.Res.Path)
			}
		} else if res := synthesis.FindRoute(fol.g, fol.db, req); res.Found {
			t.Fatalf("synced negative %v but oracle routes %v", req, res.Path)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("follower synced no entries")
	}
}

// linkSet renders a graph's link set canonically for comparison.
func linkSet(g *ad.Graph) string {
	ls := g.Links()
	keys := make([]string, len(ls))
	for i, l := range ls {
		c := l.Canonical()
		keys[i] = fmt.Sprintf("%d-%d/%d", c.A, c.B, c.Cost)
	}
	sort.Strings(keys)
	return fmt.Sprint(keys)
}

func TestBacklogTrimsPutsKeepsCtls(t *testing.T) {
	bl := newBacklog(2)
	bl.append(wire.SyncEntry{Op: wire.SyncPut}) // seq 1
	bl.append(wire.SyncEntry{Op: wire.SyncCtl}) // seq 2
	bl.append(wire.SyncEntry{Op: wire.SyncPut}) // seq 3
	bl.append(wire.SyncEntry{Op: wire.SyncPut}) // seq 4: trims seq 1
	bl.append(wire.SyncEntry{Op: wire.SyncCtl}) // seq 5
	bl.append(wire.SyncEntry{Op: wire.SyncPut}) // seq 6: trims seq 3

	if bl.latest() != 6 {
		t.Fatalf("latest = %d", bl.latest())
	}
	if bl.trimmedThrough != 3 {
		t.Fatalf("trimmedThrough = %d, want 3", bl.trimmedThrough)
	}
	// A cursor behind the horizon cannot be served incrementally.
	if _, ok := bl.from(1); ok {
		t.Fatal("cursor 1 served incrementally past trim")
	}
	// A cursor at the horizon can: everything after it is retained.
	ents, ok := bl.from(3)
	if !ok || len(ents) != 3 {
		t.Fatalf("from(3) = %d entries, ok=%v; want 3 (seqs 4,5,6)", len(ents), ok)
	}
	// Control history is complete across trims.
	ctls := bl.ctlsIn(0, 6)
	if len(ctls) != 2 || ctls[0].Seq != 2 || ctls[1].Seq != 5 {
		t.Fatalf("ctlsIn = %+v, want seqs 2 and 5", ctls)
	}
}

func TestElectionDeterminism(t *testing.T) {
	mk := func(id uint32) *Node {
		peers := []Peer{
			{ID: 1, HAAddr: "127.0.0.1:0"},
			{ID: 2, HAAddr: "127.0.0.1:0"},
			{ID: 3, HAAddr: "127.0.0.1:0"},
		}
		srv := routeserver.New(synthesis.NewOnDemand(ad.NewGraph(), policy.NewDB()), routeserver.Config{})
		dp, err := routeserver.NewDataPlane(pgstate.Config{Kind: pgstate.Soft, TTL: 30 * sim.Second})
		if err != nil {
			t.Fatal(err)
		}
		be := daemon.NewBackend(srv, dp, ad.NewGraph(), policy.NewDB())
		n, err := NewNode(Config{ID: id, Peers: peers, HeartbeatTimeout: 100 * time.Millisecond}, be, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Stop() })
		return n
	}
	now := time.Now()
	stale := now.Add(-time.Second)

	// Primary dead, lower-ID peer live: replica 3 must defer to 2.
	n3 := mk(3)
	n3.lastSeen[1] = stale
	n3.lastSeen[2] = now
	n3.electTick(now)
	if n3.IsPrimary() {
		t.Fatal("replica 3 promoted over live replica 2")
	}
	// Primary dead, lower-ID peer dead too: replica 3 is the lowest live.
	n3.lastSeen[2] = stale
	n3.electTick(now)
	if !n3.IsPrimary() || n3.Epoch() != 2 {
		t.Fatalf("replica 3 did not promote (primary=%v epoch=%d)", n3.IsPrimary(), n3.Epoch())
	}

	// Replica 2 promotes regardless of 3's liveness.
	n2 := mk(2)
	n2.lastSeen[1] = stale
	n2.lastSeen[3] = now
	n2.electTick(now)
	if !n2.IsPrimary() {
		t.Fatal("replica 2 did not promote")
	}

	// Epoch tie-break: a promotion claim from a lower ID at the same
	// epoch wins; a claim from a higher ID loses.
	n2.adopt(2, 3)
	if !n2.IsPrimary() || n2.Primary() != 2 {
		t.Fatal("higher-ID claim displaced the lower-ID primary at the same epoch")
	}
	n3.adopt(2, 2)
	if n3.IsPrimary() || n3.Primary() != 2 {
		t.Fatal("lower-ID claim at the same epoch was not adopted")
	}
}

// TestParallelMissStreamOrderConvergence pins the replication total-order
// invariant under the parallel miss path: with misses synthesizing
// concurrently on the primary, cache puts are sequenced into the backlog
// by the insert sequencer and mutations order against them through the
// write side of the strategy lock, so backlog order must equal apply
// order. The teeth: after the run quiesces and the follower drains the
// stream, the two cache dumps must be *identical* — an insert that raced
// a mutation into the wrong stream position would leave an entry the
// primary evicted resident on the follower (or vice versa), and this
// map comparison would catch exactly that.
func TestParallelMissStreamOrderConvergence(t *testing.T) {
	g, db, workload := world(53, 300)
	links := g.Links()
	lat := links[len(links)-1]

	reps := newGroup(t, 2, g, db, false,
		func(g *ad.Graph, db *policy.DB) synthesis.Strategy {
			return slowStrategy{synthesis.NewOnDemand(g, db), 20 * time.Microsecond}
		}, nil)
	prim, fol := reps[0], reps[1]

	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := c; i < len(workload); i += 4 {
					prim.be.Query(workload[i])
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if _, _, _, err := prim.be.Fail(lat.A, lat.B); err != nil {
				panic(err)
			}
			if _, _, err := prim.be.Restore(lat.A, lat.B); err != nil {
				panic(err)
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()

	waitFor(t, 10*time.Second, func() bool { return synced(prim, fol) }, "follower convergence")

	pd, fd := dumpMap(prim.srv), dumpMap(fol.srv)
	if len(pd) == 0 {
		t.Fatal("primary served nothing")
	}
	if len(pd) != len(fd) {
		t.Fatalf("dumps diverged: primary %d entries, follower %d", len(pd), len(fd))
	}
	for k, res := range pd {
		fres, ok := fd[k]
		if !ok {
			t.Fatalf("follower missing entry %v", k)
		}
		if fres.Found != res.Found || (res.Found && !fres.Path.Equal(res.Path)) {
			t.Fatalf("entry %v diverged: primary %+v, follower %+v", k, res, fres)
		}
	}
}

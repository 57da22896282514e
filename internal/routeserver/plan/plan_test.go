package plan_test

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ad"
	"repro/internal/pgstate"
	"repro/internal/policy"
	"repro/internal/routeserver"
	"repro/internal/routeserver/daemon"
	"repro/internal/routeserver/plan"
	"repro/internal/sim"
	"repro/internal/synthesis"
	"repro/internal/wire"
)

// world is the diamond the serving-layer tests share — src(1)-t1(2)-dst(4)
// cheap, src(1)-t2(3)-dst(4) expensive — behind a backend, with a query
// log so plans have a recorded workload to replay.
func world(t *testing.T) (*ad.Graph, *policy.DB, *routeserver.Server, *routeserver.DataPlane, *daemon.Backend) {
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
	srv := routeserver.New(synthesis.NewOnDemand(g, db), routeserver.Config{QueryLog: 64})
	dp, err := routeserver.NewDataPlane(pgstate.Config{Kind: pgstate.Soft, TTL: 30 * sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	return g, db, srv, dp, daemon.NewBackend(srv, dp, g, db)
}

// warm fills the cache (and query log) with a fixed request set.
func warm(t *testing.T, srv *routeserver.Server) []policy.Request {
	t.Helper()
	reqs := []policy.Request{
		{Src: 1, Dst: 4}, {Src: 1, Dst: 4, QOS: 1},
		{Src: 2, Dst: 4}, {Src: 1, Dst: 2},
		{Src: 1, Dst: 3}, {Src: 3, Dst: 4},
	}
	for _, req := range reqs {
		if res := srv.Query(req); !res.Found {
			t.Fatalf("warm query %v found no route", req)
		}
	}
	return reqs
}

func keySet(ents []routeserver.CacheEntry) map[routeserver.Key]bool {
	s := make(map[routeserver.Key]bool, len(ents))
	for _, e := range ents {
		s[e.Key] = true
	}
	return s
}

// TestPlanPredictsCommitExactly pins the engine's contract: on a quiesced
// server, the predicted evicted keys, retained count, torn-down flows, and
// unroutable pairs match what committing the plan actually does — set for
// set, not just count for count.
func TestPlanPredictsCommitExactly(t *testing.T) {
	_, _, srv, dp, be := world(t)
	warm(t, srv)
	// Two flows over the cheap transit, one over a path that avoids it.
	h14, _, ok := be.Install(policy.Request{Src: 1, Dst: 4})
	if !ok {
		t.Fatal("install 1-4 failed")
	}
	h24, _, ok := be.Install(policy.Request{Src: 2, Dst: 4})
	if !ok {
		t.Fatal("install 2-4 failed")
	}
	if _, _, ok = be.Install(policy.Request{Src: 1, Dst: 3}); !ok {
		t.Fatal("install 1-3 failed")
	}

	steps := []wire.PlanStep{
		{Op: wire.CtlFail, A: 2, B: 4},
		wire.OpenPolicy(2, 50),
	}
	id, rep, err := be.Plan(steps)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epoch != srv.Epoch() || rep.Gen != srv.Generation() {
		t.Fatalf("plan stamped epoch %d gen %d, server at %d/%d",
			rep.Epoch, rep.Gen, srv.Epoch(), srv.Generation())
	}
	if len(rep.EvictedKeys) == 0 {
		t.Fatal("failing the cheap transit predicted no evictions")
	}
	if want := []uint64{h14, h24}; !reflect.DeepEqual(rep.Teardowns, want) {
		t.Fatalf("predicted teardowns %v, want %v", rep.Teardowns, want)
	}

	before := keySet(srv.DumpEntries(nil))
	handlesBefore := dp.Handles()

	res, err := be.Commit(id)
	if err != nil {
		t.Fatal(err)
	}

	// Counts: batch totals and per-step increments.
	if res.Evicted != len(rep.EvictedKeys) {
		t.Errorf("committed evicted %d, predicted %d", res.Evicted, len(rep.EvictedKeys))
	}
	if res.Retained != rep.Retained {
		t.Errorf("committed retained %d, predicted %d", res.Retained, rep.Retained)
	}
	if len(res.Steps) != len(rep.Steps) {
		t.Fatalf("%d commit steps, %d plan steps", len(res.Steps), len(rep.Steps))
	}
	for i := range res.Steps {
		if res.Steps[i].Evicted != rep.Steps[i].Evicted || res.Steps[i].Retained != rep.Steps[i].Retained {
			t.Errorf("step %d: committed evicted/retained %d/%d, predicted %d/%d", i+1,
				res.Steps[i].Evicted, res.Steps[i].Retained,
				rep.Steps[i].Evicted, rep.Steps[i].Retained)
		}
	}

	// Sets: exactly the predicted keys left the cache.
	after := keySet(srv.DumpEntries(nil))
	for _, k := range rep.EvictedKeys {
		if !before[k] {
			t.Errorf("predicted victim %+v was not cached before commit", k)
		}
		if after[k] {
			t.Errorf("predicted victim %+v survived the commit", k)
		}
	}
	if got, want := len(after), len(before)-len(rep.EvictedKeys); got != want {
		t.Errorf("%d entries after commit, want %d (unpredicted eviction)", got, want)
	}

	// Sets: exactly the predicted flows were torn down.
	gone := make([]uint64, 0)
	still := make(map[uint64]bool)
	for _, h := range dp.Handles() {
		still[h] = true
	}
	for _, h := range handlesBefore {
		if !still[h] {
			gone = append(gone, h)
		}
	}
	if !reflect.DeepEqual(gone, rep.Teardowns) {
		t.Errorf("torn down %v, predicted %v", gone, rep.Teardowns)
	}

	// Routability: every assessed pair resolves exactly as predicted.
	unroutable := make(map[routeserver.Key]bool)
	for _, req := range rep.UnroutableAfter {
		unroutable[req] = true
	}
	for _, req := range rep.Population {
		got := be.Query(req).Found
		if want := !unroutable[req]; got != want {
			t.Errorf("post-commit %v: found=%v, predicted %v", req, got, want)
		}
	}
}

// TestPlanPredictsCommitAfterInvalidate pins plan == commit on a cache that
// a full invalidation has been through: the prediction and the eviction see
// the same entries, the refilled ones and nothing older.
func TestPlanPredictsCommitAfterInvalidate(t *testing.T) {
	_, _, srv, _, be := world(t)
	warm(t, srv)
	if _, err := be.Control(wire.PlanStep{Op: wire.CtlInvalidate}); err != nil {
		t.Fatal(err)
	}
	// One refilled entry crosses the link about to fail, one does not.
	crossing := policy.Request{Src: 1, Dst: 4}
	be.Query(crossing)
	be.Query(policy.Request{Src: 1, Dst: 3})

	id, rep, err := be.Plan([]wire.PlanStep{{Op: wire.CtlFail, A: 2, B: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if want := []routeserver.Key{crossing}; !reflect.DeepEqual(rep.EvictedKeys, want) {
		t.Errorf("predicted evicted keys %v, want %v", rep.EvictedKeys, want)
	}
	res, err := be.Commit(id)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evicted != len(rep.EvictedKeys) || res.Retained != rep.Retained {
		t.Errorf("committed evicted/retained %d/%d, predicted %d/%d",
			res.Evicted, res.Retained, len(rep.EvictedKeys), rep.Retained)
	}
	if got := srv.CacheLen(); got != rep.Retained {
		t.Errorf("%d entries cached after commit, predicted %d retained", got, rep.Retained)
	}
}

// TestPlanSequentialUnionSemantics pins that overlapping steps do not
// double-count: a victim of step 1 is gone by the time step 2 runs, and
// the per-step reports mirror that sequential reality.
func TestPlanSequentialUnionSemantics(t *testing.T) {
	_, _, srv, _, be := world(t)
	warm(t, srv)

	// 1-4 (via 1-2, 2-4) is a victim of both steps; 2-4 only of the first;
	// 1-2 only of the second.
	id, rep, err := be.Plan([]wire.PlanStep{
		{Op: wire.CtlFail, A: 2, B: 4},
		{Op: wire.CtlFail, A: 1, B: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Steps[0].Evicted <= 0 || rep.Steps[1].Evicted <= 0 {
		t.Fatalf("per-step evictions %d, %d: want both positive",
			rep.Steps[0].Evicted, rep.Steps[1].Evicted)
	}
	if sum := rep.Steps[0].Evicted + rep.Steps[1].Evicted; sum != len(rep.EvictedKeys) {
		t.Fatalf("per-step evictions sum to %d, union has %d keys", sum, len(rep.EvictedKeys))
	}
	res, err := be.Commit(id)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Steps {
		if res.Steps[i].Evicted != rep.Steps[i].Evicted {
			t.Errorf("step %d: committed %d evictions, predicted %d",
				i+1, res.Steps[i].Evicted, rep.Steps[i].Evicted)
		}
	}
}

// TestPlanReadOnly asserts planning mutates nothing a query, the epoch, or
// the generation can observe — including while concurrent queries are in
// flight (the -race run of this package is the teeth of that claim).
func TestPlanReadOnly(t *testing.T) {
	g, db, srv, dp, _ := world(t)
	warm(t, srv)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				srv.Query(policy.Request{Src: 1, Dst: 4, QOS: policy.QOS(n % 2), UCI: policy.UCI(i % 2)})
			}
		}(i)
	}
	for i := 0; i < 20; i++ {
		if _, err := plan.Compute(srv, dp, synthesis.NewWorld(g, db), []wire.PlanStep{
			{Op: wire.CtlFail, A: 2, B: 4},
			wire.OpenPolicy(3, 7),
		}, plan.Config{Workload: srv.RecentQueries()}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	// Quiesced: a plan must leave every observable identical, entry dump
	// included.
	epoch, gen := srv.Epoch(), srv.Generation()
	dump := srv.DumpEntries(nil)
	qlog := srv.RecentQueries()
	if _, err := plan.Compute(srv, dp, synthesis.NewWorld(g, db), []wire.PlanStep{{Op: wire.CtlFail, A: 2, B: 4}},
		plan.Config{Workload: qlog}); err != nil {
		t.Fatal(err)
	}
	if srv.Epoch() != epoch || srv.Generation() != gen {
		t.Errorf("plan moved epoch/gen: %d/%d -> %d/%d", epoch, gen, srv.Epoch(), srv.Generation())
	}
	if got := srv.DumpEntries(nil); !reflect.DeepEqual(got, dump) {
		t.Errorf("plan changed the cache dump: %d entries -> %d", len(dump), len(got))
	}
	if got := srv.RecentQueries(); !reflect.DeepEqual(got, qlog) {
		t.Error("plan appended to the query log")
	}
}

// TestPlanSerialParallelIdentical pins determinism: the same plan computed
// with one shadow worker and with eight is identical field for field.
func TestPlanSerialParallelIdentical(t *testing.T) {
	g, db, srv, dp, _ := world(t)
	reqs := warm(t, srv)
	steps := []wire.PlanStep{
		{Op: wire.CtlFail, A: 2, B: 4},
		wire.OpenPolicy(2, 50),
	}
	serial, err := plan.Compute(srv, dp, synthesis.NewWorld(g, db), steps, plan.Config{Workers: 1, Workload: reqs})
	if err != nil {
		t.Fatal(err)
	}
	parallelRep, err := plan.Compute(srv, dp, synthesis.NewWorld(g, db), steps, plan.Config{Workers: 8, Workload: reqs})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallelRep) {
		t.Fatalf("serial and parallel reports diverge:\n%+v\nvs\n%+v", serial, parallelRep)
	}
}

// TestPlanStaleness pins the commit guard: any mutation between plan and
// commit — including committing a sibling plan — refuses the commit.
func TestPlanStaleness(t *testing.T) {
	_, _, srv, _, be := world(t)
	warm(t, srv)

	id, _, err := be.Plan([]wire.PlanStep{{Op: wire.CtlFail, A: 2, B: 4}})
	if err != nil {
		t.Fatal(err)
	}
	be.Control(wire.OpenPolicy(3, 9)) // conflicting mutation moves the epoch
	if _, err := be.Commit(id); err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("commit after mutation: err = %v, want staleness refusal", err)
	}
	// A refused plan leaves the store.
	if _, err := be.Commit(id); err == nil || !strings.Contains(err.Error(), "unknown plan") {
		t.Fatalf("re-commit of refused plan: err = %v", err)
	}

	// Two plans at one epoch: committing the first stales the second.
	idA, _, err := be.Plan([]wire.PlanStep{{Op: wire.CtlFail, A: 2, B: 4}})
	if err != nil {
		t.Fatal(err)
	}
	idB, _, err := be.Plan([]wire.PlanStep{wire.OpenPolicy(2, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := be.Commit(idA); err != nil {
		t.Fatal(err)
	}
	if _, err := be.Commit(idB); err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("sibling commit: err = %v, want staleness refusal", err)
	}

	if _, err := be.Commit(999); err == nil || !strings.Contains(err.Error(), "unknown plan") {
		t.Fatalf("unknown id: err = %v", err)
	}
}

// TestPlanErrors covers the rejected batches: empty, a fail of a link that
// does not exist, a restore of a link never failed, an unknown op, a policy
// for an AD that does not exist, a full invalidation.
func TestPlanErrors(t *testing.T) {
	g, db, srv, dp, _ := world(t)
	cases := []struct {
		steps []wire.PlanStep
		want  string
	}{
		{nil, "empty plan"},
		{[]wire.PlanStep{{Op: wire.CtlFail, A: 9, B: 9}}, "no link"},
		{[]wire.PlanStep{{Op: wire.CtlRestore, A: 2, B: 4}}, "was not failed"},
		{[]wire.PlanStep{{Op: 99, A: 1}}, "unknown control op"},
		{[]wire.PlanStep{wire.OpenPolicy(99, 5)}, "unknown AD"},
		{[]wire.PlanStep{{Op: wire.CtlInvalidate}}, "not plannable"},
	}
	for _, tc := range cases {
		_, err := plan.Compute(srv, dp, synthesis.NewWorld(g, db), tc.steps, plan.Config{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("steps %+v: err = %v, want %q", tc.steps, err, tc.want)
		}
	}
	// A failed-then-restored link inside one batch is coherent, and the
	// plan leaves the backend's failed-link memory alone.
	rep, err := plan.Compute(srv, dp, synthesis.NewWorld(g, db), []wire.PlanStep{
		{Op: wire.CtlFail, A: 2, B: 4},
		{Op: wire.CtlRestore, A: 2, B: 4},
	}, plan.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Steps) != 2 {
		t.Fatalf("%d step reports, want 2", len(rep.Steps))
	}
	if _, ok := g.LinkBetween(2, 4); !ok {
		t.Fatal("planning a fail removed the live link")
	}
}

// TestPlanBudgetTruncation pins the population bound: a budget smaller
// than the affected population truncates deterministically and flags it.
func TestPlanBudgetTruncation(t *testing.T) {
	g, db, srv, dp, _ := world(t)
	reqs := warm(t, srv)
	full, err := plan.Compute(srv, dp, synthesis.NewWorld(g, db),
		[]wire.PlanStep{{Op: wire.CtlFail, A: 2, B: 4}}, plan.Config{Workload: reqs})
	if err != nil {
		t.Fatal(err)
	}
	if full.Truncated || len(full.Population) < 3 {
		t.Fatalf("full run: truncated=%v population=%d", full.Truncated, len(full.Population))
	}
	cut, err := plan.Compute(srv, dp, synthesis.NewWorld(g, db),
		[]wire.PlanStep{{Op: wire.CtlFail, A: 2, B: 4}}, plan.Config{Workload: reqs, Budget: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !cut.Truncated || len(cut.Population) != 2 {
		t.Fatalf("budget 2: truncated=%v population=%d", cut.Truncated, len(cut.Population))
	}
	if !reflect.DeepEqual(cut.Population, full.Population[:2]) {
		t.Error("truncation is not a prefix of the sorted population")
	}
	unbounded, err := plan.Compute(srv, dp, synthesis.NewWorld(g, db),
		[]wire.PlanStep{{Op: wire.CtlFail, A: 2, B: 4}}, plan.Config{Workload: reqs, Budget: -1})
	if err != nil {
		t.Fatal(err)
	}
	if unbounded.Truncated || len(unbounded.Population) != len(full.Population) {
		t.Fatalf("unbounded run: truncated=%v population=%d, want %d",
			unbounded.Truncated, len(unbounded.Population), len(full.Population))
	}
}

// TestPlanBill pins the re-synthesis bill: one synthesis per evicted key,
// priced from the live latency histogram.
func TestPlanBill(t *testing.T) {
	g, db, srv, dp, _ := world(t)
	warm(t, srv)
	rep, err := plan.Compute(srv, dp, synthesis.NewWorld(g, db),
		[]wire.PlanStep{{Op: wire.CtlFail, A: 2, B: 4}}, plan.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bill.Count != len(rep.EvictedKeys) {
		t.Errorf("bill count %d, want %d evicted keys", rep.Bill.Count, len(rep.EvictedKeys))
	}
	if rep.Bill.PerSynth <= 0 {
		t.Errorf("mean synthesis latency %v after warm misses", rep.Bill.PerSynth)
	}
	if rep.Bill.Projected != time.Duration(rep.Bill.Count)*rep.Bill.PerSynth {
		t.Errorf("projected %v != count %d × mean %v", rep.Bill.Projected, rep.Bill.Count, rep.Bill.PerSynth)
	}
}

// TestPlanUnroutableDetection pins the headline prediction: pairs that
// lose all routes are detected exactly, and agree with the Impact fold.
func TestPlanUnroutableDetection(t *testing.T) {
	g, db, srv, dp, _ := world(t)
	reqs := warm(t, srv)
	// Failing both of dst's links strands every pair ending at 4.
	rep, err := plan.Compute(srv, dp, synthesis.NewWorld(g, db), []wire.PlanStep{
		{Op: wire.CtlFail, A: 2, B: 4},
		{Op: wire.CtlFail, A: 3, B: 4},
	}, plan.Config{Workload: reqs})
	if err != nil {
		t.Fatal(err)
	}
	wantLost := 0
	for _, req := range rep.Population {
		if req.Dst == 4 || req.Src == 4 {
			wantLost++
		}
	}
	if len(rep.Unroutable) != wantLost || len(rep.UnroutableAfter) != wantLost {
		t.Fatalf("unroutable %d / after %d, want %d (population %v)",
			len(rep.Unroutable), len(rep.UnroutableAfter), wantLost, rep.Population)
	}
	if len(rep.Impact.Lost) != wantLost {
		t.Errorf("impact lost %d, want %d", len(rep.Impact.Lost), wantLost)
	}
}

// TestStepLabel covers the CLI spellings.
func TestStepLabel(t *testing.T) {
	for _, tc := range []struct {
		st   wire.PlanStep
		want string
	}{
		{wire.PlanStep{Op: wire.CtlFail, A: 2, B: 4}, "fail AD2-AD4"},
		{wire.PlanStep{Op: wire.CtlRestore, A: 2, B: 4}, "restore AD2-AD4"},
		{wire.OpenPolicy(7, 9), "policy AD7 cost 9"},
		{wire.PlanStep{Op: wire.CtlPolicy, A: 7}, "policy AD7 (0 terms)"},
		{wire.PlanStep{Op: wire.CtlPolicy, A: 7, Terms: []policy.Term{{Sources: policy.SetOf(1), Cost: 9}}}, "policy AD7 (1 terms)"},
		{wire.PlanStep{Op: wire.CtlInvalidate}, "invalidate"},
		{wire.PlanStep{Op: 42}, "step(42)"},
	} {
		if got := tc.st.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

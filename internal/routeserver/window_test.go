package routeserver

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ad"
	"repro/internal/policy"
	"repro/internal/synthesis"
)

// TestLateMissServedFromCache forces the interleaving behind the old
// double-synthesis window: query B misses the lock-free get and is parked
// before its claim; query A for the same key then runs to completion —
// claim, synthesis, insert-and-withdraw; B resumes and its claim finds the
// key resident. It must serve A's entry as a hit: one synthesis and one
// OnInsert per key per epoch, on which every scheduling-independent counter
// of E20–E25 and the HA stream rest. After a mutation the same key is
// computed once more, again exactly once.
func TestLateMissServedFromCache(t *testing.T) {
	g, db, _, src, _, _, dst, _, _ := scopedWorld(t)
	// On-demand: every Route call is a search, counted in its Stats.
	srv := New(synthesis.NewOnDemand(g, db), Config{Workers: 2})
	var inserts atomic.Int64
	srv.OnInsert(func(Key, Result, synthesis.Footprint) { inserts.Add(1) })

	var park atomic.Bool // the next lookup miss parks
	parked := make(chan struct{})
	resume := make(chan struct{})
	srv.afterLookupMiss = func() {
		if park.CompareAndSwap(true, false) {
			parked <- struct{}{}
			<-resume
		}
	}

	req := policy.Request{Src: src, Dst: dst}
	for epoch := 1; epoch <= 2; epoch++ {
		park.Store(true)
		late := make(chan Result)
		go func() { late <- srv.Query(req) }()
		<-parked
		first := srv.Query(req) // the whole miss path, while B sits in the window
		resume <- struct{}{}
		second := <-late

		if !first.Found || !second.Found || !first.Path.Equal(second.Path) {
			t.Fatalf("epoch %d: answers differ: %+v vs %+v", epoch, first, second)
		}
		if n := srv.StrategyStats().Misses; n != epoch {
			t.Fatalf("epoch %d: %d syntheses so far, want %d (the late miss re-synthesized)", epoch, n, epoch)
		}
		if n := inserts.Load(); n != int64(epoch) {
			t.Fatalf("epoch %d: %d OnInsert calls so far, want %d", epoch, n, epoch)
		}
		m := srv.Snapshot()
		if m.Misses != uint64(epoch) || m.Hits != uint64(epoch) || m.Coalesced != 0 {
			t.Fatalf("epoch %d: hits %d misses %d coalesced %d, want %d/%d/0",
				epoch, m.Hits, m.Misses, m.Coalesced, epoch, epoch)
		}
		if m.Hits+m.Misses+m.Coalesced != m.Queries {
			t.Fatalf("epoch %d: hits+misses+coalesced = %d, queries = %d",
				epoch, m.Hits+m.Misses+m.Coalesced, m.Queries)
		}
		srv.Mutate(nil)
	}
}

// gatedStrategy counts Route calls, announces each, and parks it on gate.
type gatedStrategy struct {
	synthesis.Strategy
	calls   atomic.Int64
	entered chan struct{}
	gate    chan struct{}
}

func (s *gatedStrategy) Route(req policy.Request) (ad.Path, bool) {
	s.calls.Add(1)
	s.entered <- struct{}{}
	<-s.gate
	return s.Strategy.Route(req)
}

// TestMutationStraddlingMissSynthesizesOnce is the other interleaving that
// used to synthesize a key twice: query A misses and claims the key while a
// mutation holds the strategy lock, so A searches only after it; query B,
// issued after MutateScoped returned, finds A's claim still pending. B must
// join A — A has not searched yet, so its answer is a post-change one — and
// not start a search of its own. The wait for a second Route is bounded: a
// slow machine can only make the test pass, with B hitting A's entry.
func TestMutationStraddlingMissSynthesizesOnce(t *testing.T) {
	g, db, _, src, t1, t2, dst, _, _ := scopedWorld(t)
	strat := &gatedStrategy{
		Strategy: synthesis.NewOnDemand(g, db),
		entered:  make(chan struct{}, 2),
		gate:     make(chan struct{}),
	}
	srv := New(strat, Config{Workers: 2})
	req := policy.Request{Src: src, Dst: dst}
	tab := &srv.tab

	inFn, finishFn, mutated := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		srv.MutateScoped(synthesis.LinkDownChange(t1, dst), func() {
			close(inFn)
			<-finishFn
			g.RemoveLink(t1, dst)
		})
		close(mutated)
	}()
	<-inFn
	results := make(chan Result, 2)
	go func() { results <- srv.Query(req) }() // A
	for claimed := false; !claimed; time.Sleep(time.Millisecond) {
		tab.mu.Lock()
		claimed = tab.pending[req] != nil
		tab.mu.Unlock()
	}
	close(finishFn)
	<-mutated
	<-strat.entered // A is searching, after the mutation

	go func() { results <- srv.Query(req) }() // B
	select {
	case <-strat.entered:
		t.Fatal("a second synthesis for the same key started in the same epoch")
	case <-time.After(100 * time.Millisecond):
	}
	close(strat.gate)
	for i := 0; i < 2; i++ {
		if res := <-results; !res.Path.Equal(ad.Path{src, t2, dst}) {
			t.Fatalf("answer %+v, want the post-change route via t2", res)
		}
	}
	if n := strat.calls.Load(); n != 1 {
		t.Fatalf("%d Route calls, want 1", n)
	}
	if m := srv.Snapshot(); m.Misses != 1 || m.Coalesced+m.Hits != 1 {
		t.Fatalf("misses %d coalesced %d hits %d, want one miss and one query served by it", m.Misses, m.Coalesced, m.Hits)
	}
	tab.mu.Lock()
	defer tab.mu.Unlock()
	checkTable(t, tab)
}

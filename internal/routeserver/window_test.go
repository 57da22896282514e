package routeserver

import (
	"sync/atomic"
	"testing"

	"repro/internal/policy"
	"repro/internal/synthesis"
)

// TestLateMissServedFromCache forces the interleaving behind the old
// double-synthesis window: query B misses the cache and is parked before
// coalesce; query A for the same key then runs to completion — synthesis,
// insert, deregistration; B resumes, finds no call in flight and becomes a
// leader. It must serve A's entry as a hit: one synthesis and one OnInsert
// per key per epoch, on which every scheduling-independent counter of
// E20–E25 and the HA stream rest. After a mutation the same key is computed
// once more, again exactly once.
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
		srv.Invalidate()
	}
}

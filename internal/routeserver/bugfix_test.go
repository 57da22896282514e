package routeserver

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ad"
	"repro/internal/policy"
	"repro/internal/synthesis"
)

// panicOnceStrategy panics on the first Route call after arming, after
// letting concurrent waiters pile onto the same pending call.
type panicOnceStrategy struct {
	synthesis.Strategy
	armed   atomic.Bool
	entered chan struct{} // closed when the doomed Route is running
	release chan struct{} // the doomed Route panics when this closes
}

func (s *panicOnceStrategy) Route(req policy.Request) (ad.Path, bool) {
	if s.armed.CompareAndSwap(true, false) {
		close(s.entered)
		<-s.release
		panic("synthesis exploded")
	}
	return s.Strategy.Route(req)
}

// TestCoalescePanicSafety pins the panic contract of the miss path: a
// panicking synthesis must re-panic on the leader, release every
// coalesced waiter (with the zero "no legal route" Result) rather than
// hanging them forever, withdraw the leader's claim, and leave the
// strategy lock released so the server keeps serving.
func TestCoalescePanicSafety(t *testing.T) {
	g := ad.NewGraph()
	src := g.AddAD("src", ad.Stub, ad.Campus)
	dst := g.AddAD("dst", ad.Stub, ad.Campus)
	if err := g.AddLink(ad.Link{A: src, B: dst, Cost: 1}); err != nil {
		t.Fatal(err)
	}
	db := policy.OpenDB(g)
	strat := &panicOnceStrategy{
		Strategy: synthesis.NewOnDemand(g, db),
		entered:  make(chan struct{}),
		release:  make(chan struct{}),
	}
	strat.armed.Store(true)
	srv := New(strat, Config{Workers: 4})

	req := policy.Request{Src: src, Dst: dst}

	// Leader: runs the doomed computation and must see the panic again.
	leaderPanicked := make(chan any, 1)
	go func() {
		defer func() { leaderPanicked <- recover() }()
		srv.Query(req)
	}()
	<-strat.entered

	// Waiters: coalesce onto the leader's in-flight call.
	const waiters = 3
	var wg sync.WaitGroup
	results := make([]Result, waiters)
	for i := 0; i < waiters; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = srv.Query(req)
		}()
	}
	// Give the waiters time to join the leader's pending call before
	// the leader blows up; joining late (as fresh leaders) would dodge the
	// regression this test exists for.
	time.Sleep(20 * time.Millisecond)
	close(strat.release)

	if p := <-leaderPanicked; p == nil {
		t.Fatal("leader swallowed the synthesis panic")
	} else if !strings.Contains(p.(string), "synthesis exploded") {
		t.Fatalf("leader re-panicked with %v", p)
	}

	waitersDone := make(chan struct{})
	go func() { wg.Wait(); close(waitersDone) }()
	select {
	case <-waitersDone:
	case <-time.After(5 * time.Second):
		t.Fatal("coalesced waiters hung after the leader panicked")
	}
	for i, res := range results {
		if res.Found {
			t.Errorf("waiter %d got a route from a panicked computation: %+v", i, res)
		}
	}

	// The claim must not leak.
	leaked := 0
	for i := range srv.shards {
		sh := &srv.shards[i]
		sh.mu.Lock()
		leaked += len(sh.pending)
		sh.mu.Unlock()
	}
	if leaked != 0 {
		t.Fatalf("%d claims leaked", leaked)
	}

	// The strategy lock must be free again: queries and mutations proceed.
	done := make(chan Result, 1)
	go func() { done <- srv.Query(req) }()
	select {
	case res := <-done:
		if !res.Found || !res.Path.Equal(ad.Path{src, dst}) {
			t.Fatalf("post-panic query = %+v", res)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server deadlocked after a synthesis panic (strategy lock held?)")
	}
	srv.MutateScoped(synthesis.LinkDownChange(src, dst), func() { g.RemoveLink(src, dst) })
}

// TestEvictScopedCountsActualDeletions pins the eviction accounting: a
// victim key resolved through the reverse index whose cache entry is
// already gone (a dangling index edge) is not eviction work and must not
// be reported as such.
func TestEvictScopedCountsActualDeletions(t *testing.T) {
	g, _, srv, src, t1, _, dst, _, _ := scopedWorld(t)
	rCheap := policy.Request{Src: src, Dst: dst}
	if res := srv.Query(rCheap); !res.Path.Equal(ad.Path{src, t1, dst}) {
		t.Fatalf("warm route = %+v", res)
	}

	// Manufacture the dangling edge: drop the entry while leaving its index
	// edges in place, as a racing deletion between index resolution and the
	// eviction sweep would.
	k := rCheap
	sh := &srv.shards[hash(k)&srv.mask]
	sh.mu.Lock()
	e := sh.get(k, hash(k))
	if e == nil {
		sh.mu.Unlock()
		t.Fatal("warm entry missing")
	}
	sh.detach(e)
	sh.mu.Unlock()

	evicted, _ := srv.MutateScoped(
		synthesis.LinkDownChange(t1, dst), func() { g.RemoveLink(t1, dst) })
	if evicted != 0 {
		t.Fatalf("evicted = %d for a dangling index edge, want 0", evicted)
	}
}

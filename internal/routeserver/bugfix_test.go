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
	srv.tab.mu.Lock()
	leaked := len(srv.tab.pending)
	srv.tab.mu.Unlock()
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

// TestEvictScopedCountsActualDeletions pins the eviction accounting: an
// entry that left the cache before a mutation takes its index edges with
// it, so the mutation finds no victim there and reports no eviction work.
func TestEvictScopedCountsActualDeletions(t *testing.T) {
	g, _, srv, src, t1, _, dst, _, _ := scopedWorld(t)
	rCheap := policy.Request{Src: src, Dst: dst}
	if res := srv.Query(rCheap); !res.Path.Equal(ad.Path{src, t1, dst}) {
		t.Fatalf("warm route = %+v", res)
	}

	k := rCheap
	srv.tab.mu.Lock()
	e := srv.tab.get(k, hash(k))
	if e == nil {
		srv.tab.mu.Unlock()
		t.Fatal("warm entry missing")
	}
	srv.tab.remove(e)
	if vs := srv.tab.victims(synthesis.LinkDownChange(t1, dst)); len(vs) != 0 {
		srv.tab.mu.Unlock()
		t.Fatalf("the removed entry left edges behind: victims %v", keysOf(vs))
	}
	checkTable(t, &srv.tab)
	srv.tab.mu.Unlock()

	evicted, _ := srv.MutateScoped(
		synthesis.LinkDownChange(t1, dst), func() { g.RemoveLink(t1, dst) })
	if evicted != 0 {
		t.Fatalf("evicted = %d after the entry was gone, want 0", evicted)
	}
}

package routeserver

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ad"
	"repro/internal/policy"
	"repro/internal/synthesis"
)

// barrierStrategy proves miss overlap directly: every Route call parks at
// a barrier that opens only when want calls are inside Route at the same
// instant. If the serving layer serialized misses (the old global strategy
// lock), the barrier could never fill and every call would time out.
type barrierStrategy struct {
	synthesis.Strategy
	want     int32
	inside   atomic.Int32
	peak     atomic.Int32
	release  chan struct{}
	timedOut atomic.Bool
}

func (s *barrierStrategy) Route(req policy.Request) (ad.Path, bool) {
	n := s.inside.Add(1)
	defer s.inside.Add(-1)
	for {
		p := s.peak.Load()
		if n <= p || s.peak.CompareAndSwap(p, n) {
			break
		}
	}
	if n == s.want {
		close(s.release)
	}
	select {
	case <-s.release:
	case <-time.After(10 * time.Second):
		s.timedOut.Store(true)
		return nil, false
	}
	return s.Strategy.Route(req)
}

// TestMissOverlapBarrier asserts concurrent-miss overlap directly rather
// than inferring it from timing: N misses for distinct keys must all be
// inside strategy.Route simultaneously before any of them may return.
func TestMissOverlapBarrier(t *testing.T) {
	g, db, _, src, _, _, dst, _, _ := scopedWorld(t)
	const n = 4
	bs := &barrierStrategy{
		Strategy: synthesis.NewOnDemand(g, db),
		want:     n,
		release:  make(chan struct{}),
	}
	srv := New(bs, Config{Workers: n})

	var wg sync.WaitGroup
	results := make([]Result, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Distinct hours make distinct serving keys, so the shard
			// cannot coalesce these into one computation.
			results[i] = srv.Query(policy.Request{Src: src, Dst: dst, Hour: uint8(i)})
		}()
	}
	wg.Wait()

	if bs.timedOut.Load() {
		t.Fatalf("misses never overlapped: %d of %d reached the barrier", bs.peak.Load(), n)
	}
	if got := bs.peak.Load(); got != n {
		t.Fatalf("peak concurrent Route calls = %d, want %d", got, n)
	}
	for i, res := range results {
		if !res.Found {
			t.Fatalf("query %d found no route", i)
		}
	}
	if snap := srv.Snapshot(); snap.Misses != n {
		t.Fatalf("Misses = %d, want %d distinct-key leaders", snap.Misses, n)
	}
}

// missBatchElapsed serves `keys` distinct-key misses against a slow
// strategy with GOMAXPROCS set to procs (which also sizes the default
// worker pool) and returns the wall time for the batch.
func missBatchElapsed(t *testing.T, procs, keys int, delay time.Duration) time.Duration {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)

	g, db, _, src, _, _, dst, _, _ := scopedWorld(t)
	srv := New(slowStrategy{synthesis.NewOnDemand(g, db), delay}, Config{})

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < keys; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv.Query(policy.Request{Src: src, Dst: dst, Hour: uint8(i)})
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// TestMissThroughputScalesWithGOMAXPROCS pins the tentpole claim: with a
// deliberately slow strategy, miss-path throughput at GOMAXPROCS=4 is at
// least 2x the GOMAXPROCS=1 throughput. The slow search sleeps rather
// than burns CPU, so the speedup measures lock structure, not core count
// — under the old global strategy lock the sleeps serialized and the
// ratio was ~1x regardless of GOMAXPROCS; under the read-plane design the
// worker pool (sized by GOMAXPROCS) is the only width limit.
func TestMissThroughputScalesWithGOMAXPROCS(t *testing.T) {
	const keys = 16
	const delay = 5 * time.Millisecond
	serial := missBatchElapsed(t, 1, keys, delay)
	parallel := missBatchElapsed(t, 4, keys, delay)
	// keys/elapsed is the miss QPS; the ratio inverts to elapsed times.
	if serial < 2*parallel {
		t.Fatalf("miss throughput at GOMAXPROCS=4 only %.2fx of GOMAXPROCS=1 (serial %v, parallel %v), want >= 2x",
			float64(serial)/float64(parallel), serial, parallel)
	}
}

// TestParallelMissesStraddleMutateScoped is the race workout for the
// reader/writer redesign: slow concurrent misses overlap full and scoped
// mutations, so every interleaving of search, insert, eviction scan, and
// table rebuild is on the table. The -race runs in `make check` are the
// teeth; the oracle sweep at the end catches stale answers that landed
// behind a mutation.
func TestParallelMissesStraddleMutateScoped(t *testing.T) {
	g, db, workload := testbed(31, 200)
	links := g.Links()
	lat := links[len(links)-1]
	srv := New(slowStrategy{synthesis.NewOnDemand(g, db), 50 * time.Microsecond},
		Config{Workers: 8})

	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 2; round++ {
				for i := c; i < len(workload); i += 6 {
					srv.Query(workload[i])
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			srv.MutateScoped(synthesis.LinkDownChange(lat.A, lat.B),
				func() { g.RemoveLink(lat.A, lat.B) })
			srv.MutateScoped(synthesis.LinkUpChange(lat.A, lat.B),
				func() {
					if err := g.AddLink(lat); err != nil {
						panic(err)
					}
				})
			if i%2 == 1 {
				srv.Mutate(nil)
			}
		}
	}()
	wg.Wait()

	snap := srv.Snapshot()
	if snap.Hits+snap.Misses+snap.Coalesced != snap.Queries {
		t.Fatalf("counter accounting broken: %+v", snap)
	}
	srv.Mutate(nil)
	for _, req := range workload[:40] {
		want := synthesis.Compile(g, db).FindRoute(req)
		got := srv.Query(req)
		if got.Found != want.Found || (want.Found && !got.Path.Equal(want.Path)) {
			t.Fatalf("req %v: %+v vs oracle %+v", req, got, want)
		}
	}
}

// TestQueryLogConcurrentRecord hammers the atomic ring from many writers
// with readers in flight — writers lap each other on eight slots, so a
// record whose words came from two writers would show as an hour that does
// not match its endpoints — then pins the quiesced semantics: the newest
// cap records win, oldest first — exactly what the old mutex ring
// reported.
func TestQueryLogConcurrentRecord(t *testing.T) {
	const capn = 8
	q := &queryLog{buf: make([]querySlot, capn)}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, req := range q.recent() {
					if req.Src == 0 {
						t.Error("recent() surfaced a zero request")
						return
					}
					if req.Hour != uint8(req.Src-1)*7+uint8(req.Dst-1) {
						t.Errorf("recent() surfaced a torn request %+v", req)
						return
					}
				}
			}
		}()
	}
	var writers sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 1000; i++ {
				q.record(policy.Request{Src: 1 + ad.ID(w), Dst: 1 + ad.ID(i%7), Hour: uint8(w*7 + i%7)})
			}
		}()
	}
	writers.Wait()
	close(stop)
	wg.Wait()

	if got := q.next.Load(); got != 8000 {
		t.Fatalf("ticket counter = %d, want 8000", got)
	}
	if got := len(q.recent()); got > capn {
		t.Fatalf("recent() returned %d entries, cap is %d", got, capn)
	}

	// Quiesced tail: the last capn serial records are exactly what recent
	// reports, oldest first.
	var want []policy.Request
	for i := 0; i < capn; i++ {
		req := policy.Request{Src: 100, Dst: ad.ID(200 + i)}
		q.record(req)
		want = append(want, req)
	}
	got := q.recent()
	if len(got) != capn {
		t.Fatalf("recent() after quiesce: %d entries, want %d", len(got), capn)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("recent()[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

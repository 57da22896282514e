package routeserver

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/ad"
	"repro/internal/policy"
	"repro/internal/synthesis"
)

// The cache layer of the ladder (make bench-cache): a cached answer from one
// goroutine, from all of them on a skewed key set, and a miss with the
// search taken out, from one goroutine and from all of them.

// stubStrategy answers every request at no cost with a five-AD route drawn
// from pools of 40, 10, 4, 10 and 40 ADs keyed by src and dst, whose
// transit ADs charge serial 1 or 2: about 160 links and 50 terms, the
// benchmark internet's counts, four links and three terms a route (a real
// one there has 5.6 and 4.6), and a footprint that is the path's, so an
// entry holds what a real miss's holds. The route does not start at src:
// nothing checks a stub answer. What is left of a miss is the server's own
// bookkeeping — the claim, insert, index, evict. Like the real strategy it
// is a synthesis.Charger.
type stubStrategy struct{}

func (stubStrategy) Route(req policy.Request) (ad.Path, bool) {
	const pool = 1 << 20 // above every key's Src and Dst
	s, d := req.Src%40, req.Dst%40
	return ad.Path{pool + s, pool + 40 + s%10, pool + 50 + (s+d)%4, pool + 60 + d%10, pool + 70 + d}, true
}
func (stubStrategy) Stats() synthesis.StrategyStats    { return synthesis.StrategyStats{} }
func (stubStrategy) Invalidate()                       {}
func (stubStrategy) InvalidateScoped(synthesis.Change) {}
func (stubStrategy) Name() string                      { return "stub" }
func (stubStrategy) AppendCharged(dst []uint32, req policy.Request, path ad.Path) []uint32 {
	for range transits(path) {
		dst = append(dst, 1+uint32(req.Src+req.Dst)%2)
	}
	return dst
}
func (s stubStrategy) Footprint(req policy.Request, path ad.Path) synthesis.Footprint {
	return synthesis.FootprintOf(path, s.AppendCharged(nil, req, path))
}

var benchSink Result

// benchTape is n requests over keys distinct keys: Zipf s = 1.4 (the
// benchmark's hit tapes) or uniform.
func benchTape(n, keys int, zipf bool) []policy.Request {
	rng := rand.New(rand.NewSource(1))
	pick := func() uint64 { return uint64(rng.Intn(keys)) }
	if zipf {
		pick = rand.NewZipf(rng, 1.4, 1, uint64(keys-1)).Uint64
	}
	tape := make([]policy.Request, n)
	for i := range tape {
		k := pick()
		tape[i] = policy.Request{Src: ad.ID(1 + k%997), Dst: ad.ID(1 + k/997), Hour: 12}
	}
	return tape
}

func warmServer(tape []policy.Request) *Server {
	srv := New(stubStrategy{}, Config{})
	for _, req := range tape {
		srv.Query(req)
	}
	return srv
}

func BenchmarkQueryHit(b *testing.B) {
	tape := benchTape(1<<14, 8192, true)
	srv := warmServer(tape)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = srv.Query(tape[i&(len(tape)-1)])
	}
}

func BenchmarkQueryHitParallel(b *testing.B) {
	tape := benchTape(1<<14, 8192, true)
	srv := warmServer(tape)
	var offset atomic.Uint32
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var res Result
		for i := int(offset.Add(977)); pb.Next(); i++ {
			res = srv.Query(tape[i&(len(tape)-1)])
		}
		_ = res
	})
}

// missServer is a full server of the given capacity behind the stub, warmed
// on tape's first twice-capacity keys, and the live heap it holds per
// resident entry, paths included: the benchmarks report it as B/entry.
func missServer(capacity int, tape []policy.Request) (*Server, float64) {
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	srv := New(stubStrategy{}, Config{Capacity: capacity})
	for _, req := range tape[:2*capacity] {
		srv.Query(req)
	}
	return srv, (float64(heap()) - float64(before)) / float64(srv.CacheLen())
}

// BenchmarkMissInsertEvict: uniform keys over sixteen times the capacity, so
// nearly every query computes (the stub), inserts, indexes and evicts.
func BenchmarkMissInsertEvict(b *testing.B) {
	const capacity = 4096
	tape := benchTape(1<<16, 16*capacity, false)
	srv, perEntry := missServer(capacity, tape)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = srv.Query(tape[i&(len(tape)-1)])
	}
	b.StopTimer()
	b.ReportMetric(perEntry, "B/entry")
	if s := srv.Snapshot(); float64(s.Misses) < 0.9*float64(s.Queries) {
		b.Fatalf("only %d of %d queries missed", s.Misses, s.Queries)
	}
}

// BenchmarkMissInsertEvictParallel is BenchmarkMissInsertEvict from every
// core: the goroutines take the tape in chunks of 64 from one cursor, so
// together they issue it in nearly its serial order, miss as often, and
// contend for the table's lock (the claim, and the insert with its eviction
// and index upkeep).
func BenchmarkMissInsertEvictParallel(b *testing.B) {
	const capacity = 4096
	tape := benchTape(1<<16, 16*capacity, false)
	srv, perEntry := missServer(capacity, tape)
	var cursor atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var res Result
		for i, end := 0, 0; pb.Next(); i++ {
			if i == end {
				end = int(cursor.Add(64))
				i = end - 64
			}
			res = srv.Query(tape[i&(len(tape)-1)])
		}
		_ = res
	})
	b.StopTimer()
	b.ReportMetric(perEntry, "B/entry")
	if s := srv.Snapshot(); float64(s.Misses) < 0.9*float64(s.Queries) {
		b.Fatalf("only %d of %d queries missed", s.Misses, s.Queries)
	}
}

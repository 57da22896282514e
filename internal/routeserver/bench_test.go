package routeserver

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/ad"
	"repro/internal/policy"
	"repro/internal/synthesis"
)

// The cache layer of the ladder (make bench-cache): a cached answer from one
// goroutine, from all of them on a skewed key set, and a miss with the
// search taken out.

// stubStrategy answers every request with the two-hop path src → dst at no
// cost, and a footprint the size a real route's is on the benchmark's
// internet (four links, four terms, drawn from ~150 links and ~40 terms):
// what is left of a miss is the server's own bookkeeping — the claim,
// insert, index, evict.
type stubStrategy struct{}

func (stubStrategy) Route(req policy.Request) (ad.Path, bool) {
	return ad.Path{req.Src, req.Dst}, true
}
func (stubStrategy) Stats() synthesis.StrategyStats    { return synthesis.StrategyStats{} }
func (stubStrategy) Invalidate()                       {}
func (stubStrategy) InvalidateScoped(synthesis.Change) {}
func (stubStrategy) Name() string                      { return "stub" }
func (stubStrategy) Footprint(req policy.Request, _ ad.Path) synthesis.Footprint {
	fp := synthesis.Footprint{Links: make([][2]ad.ID, 4), Terms: make([]policy.Key, 4)}
	for i := range fp.Links {
		fp.Links[i] = [2]ad.ID{req.Src%13 + ad.ID(13*i), 100 + req.Dst%3}
		fp.Terms[i] = policy.Key{Advertiser: (req.Src + ad.ID(i)) % 40, Serial: 1}
	}
	return fp
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

// BenchmarkMissInsertEvict: uniform keys over sixteen times the capacity, so
// nearly every query computes (the stub), inserts, indexes and evicts.
func BenchmarkMissInsertEvict(b *testing.B) {
	const capacity = 4096
	tape := benchTape(1<<16, 16*capacity, false)
	srv := New(stubStrategy{}, Config{Capacity: capacity})
	for _, req := range tape[:2*capacity] {
		srv.Query(req)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = srv.Query(tape[i&(len(tape)-1)])
	}
	b.StopTimer()
	if s := srv.Snapshot(); float64(s.Misses) < 0.9*float64(s.Queries) {
		b.Fatalf("only %d of %d queries missed", s.Misses, s.Queries)
	}
}

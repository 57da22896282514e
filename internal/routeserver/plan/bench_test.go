package plan_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/ad"
	"repro/internal/policy"
	"repro/internal/routeserver"
	"repro/internal/routeserver/plan"
	"repro/internal/synthesis"
	"repro/internal/wire"
)

// hubFail is the step every scaling case plans: failing the hubA-hubB link
// planBenchWorld routes the affected population across.
var hubFail = []wire.PlanStep{{Op: wire.CtlFail, A: 1, B: 2}}

// planBenchWorld builds the controlled serving state: two transit hubs
// (IDs 1 and 2) joined by the link the plan fails, stub fans on each whose
// routes cross it (the affected population), and a third hub (ID 3) whose
// local pairs pad the cache to `total` entries without touching the hub
// link. Entries are installed directly with their real footprints, so the
// reverse indexes see exactly what live synthesis would record.
func planBenchWorld(tb testing.TB, total, affected int) (*synthesis.World, *routeserver.Server) {
	tb.Helper()
	g := ad.NewGraph()
	hubA := g.AddAD("hubA", ad.Transit, ad.Backbone)
	hubB := g.AddAD("hubB", ad.Transit, ad.Backbone)
	hubC := g.AddAD("hubC", ad.Transit, ad.Backbone)
	mustLink := func(a, b ad.ID) {
		if err := g.AddLink(ad.Link{A: a, B: b, Cost: 1}); err != nil {
			tb.Fatal(err)
		}
	}
	mustLink(hubA, hubB)
	const fan = 8
	var left, right, filler []ad.ID
	for i := 0; i < fan; i++ {
		l := g.AddAD(fmt.Sprintf("l%d", i), ad.Stub, ad.Campus)
		r := g.AddAD(fmt.Sprintf("r%d", i), ad.Stub, ad.Campus)
		mustLink(l, hubA)
		mustLink(r, hubB)
		left, right = append(left, l), append(right, r)
	}
	for i := 0; i < 24; i++ {
		f := g.AddAD(fmt.Sprintf("f%d", i), ad.Stub, ad.Campus)
		mustLink(f, hubC)
		filler = append(filler, f)
	}
	db := policy.OpenDB(g)
	srv := routeserver.New(synthesis.NewOnDemand(g, db), routeserver.Config{})
	snap := synthesis.Compile(g, db)

	install := func(req policy.Request, path ad.Path) {
		srv.InstallEntry(req,
			routeserver.Result{Path: path, Found: true},
			snap.Footprint(req, path))
	}
	// Affected entries: distinct (src, dst, hour) keys routed across the
	// hub link.
	for i := 0; i < affected; i++ {
		src, dst := left[i%fan], right[(i/fan)%fan]
		req := policy.Request{Src: src, Dst: dst, Hour: uint8((i / (fan * fan)) % 24)}
		install(req, ad.Path{src, hubA, hubB, dst})
	}
	// Filler entries: hubC-local pairs whose footprints never mention the
	// hub link, padding the cache to the target size.
	n := 0
	for h := 0; n < total-affected && h < 24; h++ {
		for qos := 0; n < total-affected && qos < 4; qos++ {
			for i := 0; n < total-affected && i < len(filler); i++ {
				for j := 0; n < total-affected && j < len(filler); j++ {
					if i == j {
						continue
					}
					src, dst := filler[i], filler[j]
					req := policy.Request{Src: src, Dst: dst, QOS: policy.QOS(qos), Hour: uint8(h)}
					install(req, ad.Path{src, hubC, dst})
					n++
				}
			}
		}
	}
	if got := srv.CacheLen(); got != total {
		tb.Fatalf("cache holds %d entries, want %d", got, total)
	}
	return synthesis.NewWorld(g, db), srv
}

// TestPlanWorkFollowsRadiusNotCacheSize is the deterministic form of the
// claim BenchmarkPlan times: what a plan evicts, assesses and re-synthesizes
// depends on the blast radius alone. At equal radius two cache sizes give
// the same evicted count, population and search work; at equal cache size a
// larger radius gives a larger population.
func TestPlanWorkFollowsRadiusNotCacheSize(t *testing.T) {
	compute := func(total, radius int) *plan.Report {
		w, srv := planBenchWorld(t, total, radius)
		rep, err := plan.Compute(srv, nil, w, hubFail, plan.Config{Budget: -1})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.EvictedKeys) != radius {
			t.Fatalf("cache %d: blast radius %d, want %d", total, len(rep.EvictedKeys), radius)
		}
		return rep
	}
	for _, radius := range []int{16, 128} {
		small, large := compute(1024, radius), compute(4096, radius)
		if !reflect.DeepEqual(small.Population, large.Population) {
			t.Errorf("radius %d: population %d at cache 1024, %d at cache 4096",
				radius, len(small.Population), len(large.Population))
		}
		if small.Impact.WorkBefore != large.Impact.WorkBefore || small.Impact.WorkAfter != large.Impact.WorkAfter {
			t.Errorf("radius %d: work %d->%d at cache 1024, %d->%d at cache 4096", radius,
				small.Impact.WorkBefore, small.Impact.WorkAfter, large.Impact.WorkBefore, large.Impact.WorkAfter)
		}
		if small.Retained+radius != 1024 || large.Retained+radius != 4096 {
			t.Errorf("radius %d: retained %d and %d", radius, small.Retained, large.Retained)
		}
	}
	if narrow, wide := compute(4096, 16), compute(4096, 128); len(wide.Population) <= len(narrow.Population) {
		t.Errorf("population %d at radius 128, %d at radius 16", len(wide.Population), len(narrow.Population))
	}
}

// BenchmarkPlan measures plan.Compute against a warm cache whose size and
// affected population are controlled independently: every installed entry
// carries a real footprint, but only `radius` of them cross the hub link
// the plan proposes to fail. Each iteration runs the full engine — snapshot
// under the strategy lock, victim resolution through the reverse indexes,
// and the two-clone shadow re-synthesis of the affected population. The
// last case reports the two scaling ratios: cache_scaling, the mean time
// ratio of the 32k-entry cache over the 8k one at equal radius (~1: cache
// size is not the cost driver), and radius_scaling, the mean ratio of
// radius 1024 over radius 64 at equal cache size (>> 1: the radius is).
func BenchmarkPlan(b *testing.B) {
	ns := map[[2]int]float64{}
	for _, cacheSize := range []int{8192, 32768} {
		for _, radius := range []int{64, 1024} {
			b.Run(fmt.Sprintf("cache=%d/radius=%d", cacheSize, radius), func(b *testing.B) {
				w, srv := planBenchWorld(b, cacheSize, radius)
				b.ResetTimer()
				start := time.Now()
				for i := 0; i < b.N; i++ {
					rep, err := plan.Compute(srv, nil, w, hubFail, plan.Config{Budget: -1})
					if err != nil {
						b.Fatal(err)
					}
					if len(rep.EvictedKeys) != radius {
						b.Fatalf("blast radius %d, want %d", len(rep.EvictedKeys), radius)
					}
				}
				// Benchmark calibration re-runs this body with growing
				// b.N; keep the final (longest) measurement.
				ns[[2]int{cacheSize, radius}] = float64(time.Since(start).Nanoseconds()) / float64(b.N)
				if len(ns) == 4 {
					a, c := ns[[2]int{8192, 64}], ns[[2]int{32768, 64}]
					a2, c2 := ns[[2]int{8192, 1024}], ns[[2]int{32768, 1024}]
					b.ReportMetric((c/a+c2/a2)/2, "cache_scaling")
					b.ReportMetric((a2/a+c2/c)/2, "radius_scaling")
				}
			})
		}
	}
}

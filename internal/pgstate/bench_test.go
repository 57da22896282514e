package pgstate

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/ad"
	"repro/internal/policy"
	"repro/internal/sim"
)

// The PG state operations sit on the simulated data plane's hot path:
// every forwarded packet is a Lookup, every keepalive a Refresh, and every
// setup an Install (with a possible eviction under Capped). These
// benchmarks track their cost per discipline.

func benchRoute() (ad.Path, policy.Request) {
	return ad.Path{1, 2, 3, 4, 5}, policy.Request{Src: 1, Dst: 5}
}

// benchPopulation is the number of handles the install benchmarks hold.
const benchPopulation = 256

func BenchmarkInstallHard(b *testing.B) { benchInstall(b, Config{Kind: Hard}) }
func BenchmarkInstallSoft(b *testing.B) { benchInstall(b, Config{Kind: Soft}) }
func BenchmarkInstallCapped(b *testing.B) {
	benchInstall(b, Config{Kind: Capped, Capacity: benchPopulation})
}

// benchInstall measures steady-state install cost in a table held at
// benchPopulation handles, so its maps and arena stop growing: under Hard
// and Soft each install follows the removal of the handle installed
// benchPopulation installs earlier (as TestAllocsSmallTable churns), and
// under Capped the capacity holds the population, so every install evicts.
func benchInstall(b *testing.B, cfg Config) {
	route, req := benchRoute()
	tab := NewTable(cfg)
	for h := uint64(0); h < benchPopulation; h++ {
		tab.Install(0, h, route, 2, req, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := uint64(benchPopulation + i)
		if cfg.Kind != Capped {
			tab.Remove(h - benchPopulation)
		}
		tab.Install(sim.Time(i), h, route, 2, req, 0)
	}
}

func BenchmarkLookupHit(b *testing.B) {
	route, req := benchRoute()
	tab := NewTable(Config{Kind: Soft, TTL: sim.Time(1 << 60)})
	for h := uint64(0); h < 1024; h++ {
		tab.Install(0, h, route, 2, req, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Lookup(1, uint64(i)&1023)
	}
}

func BenchmarkRefresh(b *testing.B) {
	route, req := benchRoute()
	tab := NewTable(Config{Kind: Soft, TTL: sim.Time(1 << 60)})
	for h := uint64(0); h < 1024; h++ {
		tab.Install(0, h, route, 2, req, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Refresh(1, uint64(i)&1023, 0)
	}
}

func BenchmarkExpireDueSweep(b *testing.B) {
	route, req := benchRoute()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tab := NewTable(Config{Kind: Soft, TTL: sim.Time(1)})
		for h := uint64(0); h < 512; h++ {
			tab.Install(0, h, route, 2, req, 0)
		}
		b.StartTimer()
		tab.ExpireDue(2)
	}
}

// BenchmarkPGStateMillion holds 1M+ soft-state handles in one table and
// measures the three costs the table is built around: install throughput
// (arena + wheel + link index, no steady-state allocation), expiry with the
// timer wheel (cost ∝ due handles — the no-due sweep at full population
// visits a bounded slot walk, not a million entries), and resident bytes
// per handle. Wall-clock rates are hardware-dependent; the
// visit counts and the residency checks are exact.
func BenchmarkPGStateMillion(b *testing.B) {
	const (
		handles = 1 << 20 // 1,048,576
		cohorts = 100     // staggered TTLs: each sweep expires ~1% of the table
		lookups = 200_000
	)
	// A small route pool over 64 ADs: entries share routes (as real flows
	// share paths) while the link index still fans out.
	routes := make([]ad.Path, 256)
	for i := range routes {
		routes[i] = ad.Path{ad.ID(i%32 + 1), ad.ID(32 + i%8 + 1)}
	}
	req := policy.Request{Src: 1, Dst: 33}

	for iter := 0; iter < b.N; iter++ {
		tab := NewTable(Config{Kind: Soft})

		runtime.GC()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)

		start := time.Now()
		for h := uint64(1); h <= handles; h++ {
			ttl := sim.Time(1+h%cohorts) * sim.Second
			tab.Install(0, h, routes[h%uint64(len(routes))], 0, req, ttl)
		}
		installSecs := time.Since(start).Seconds()

		runtime.GC()
		var after runtime.MemStats
		runtime.ReadMemStats(&after)

		if tab.Len() != handles {
			b.Fatalf("table holds %d of %d handles", tab.Len(), handles)
		}

		// Lookups at full population.
		hits := 0
		for i := 0; i < lookups; i++ {
			if _, ok := tab.Lookup(1, uint64(i)%handles+1); ok {
				hits++
			}
		}
		if hits != lookups {
			b.Fatalf("lookup hit %d of %d at full population", hits, lookups)
		}

		// A sweep with nothing due at full population: the wheel walks its
		// bounded slot range (plus cascade traffic), never the million
		// entries the reference would scan.
		preCost := tab.SweepCost()
		if due := tab.ExpireDue(1); len(due) != 0 {
			b.Fatalf("no-due sweep expired %d handles", len(due))
		}
		noDueCost := tab.SweepCost()

		// Cohort sweeps: each advances one second and expires ~1% of the
		// original table.
		expired := 0
		start = time.Now()
		for c := 1; c <= cohorts; c++ {
			expired += len(tab.ExpireDue(sim.Time(c)*sim.Second + 1))
		}
		sweepSecs := time.Since(start).Seconds()
		dueCost := tab.SweepCost()
		if expired != handles || tab.Len() != 0 {
			b.Fatalf("sweeps expired %d of %d, %d left", expired, handles, tab.Len())
		}

		b.ReportMetric(float64(handles)/installSecs, "installs/s")
		b.ReportMetric(float64(expired)/sweepSecs, "expired/s")
		b.ReportMetric((float64(after.HeapAlloc)-float64(before.HeapAlloc))/handles, "bytes/handle")
		b.ReportMetric(float64(noDueCost.Entries-preCost.Entries), "no-due-visits")
		b.ReportMetric(float64(dueCost.Entries-noDueCost.Entries)/cohorts, "visits/sweep")
	}
}

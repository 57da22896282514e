package experiments

import (
	"math/rand"
	"slices"

	"repro/internal/ad"
	"repro/internal/metrics"
	"repro/internal/pgstate"
	"repro/internal/policy"
	"repro/internal/sim"
)

// E24 workload shape: e24Handles soft-state flows whose TTLs spread across
// e24Cohorts staggered deadlines, swept cohort by cohort. Small enough to
// run in the full-suite budget, large enough that a full-scan expiry pays
// visibly more than a wheel sweep (the pgstate package's
// BenchmarkPGStateMillion covers the million-handle point).
const (
	e24Handles = 40_000
	e24Cohorts = 20
)

// E24PGStateScale measures what the sharded-table rewrite buys and proves
// it safe: the same staggered-TTL workload drives the scan-based Reference
// (the retained executable specification) and the sharded Table at each
// shard count. The differential check — expiry sets compared sweep by
// sweep, Stats and Len compared at the end — runs inside the experiment, so
// the equivalence claim is a reported, regression-checked result, not just
// a test. The cost columns contrast the Reference's full scans (entries
// visited per sweep = whole table) with the wheel's visit count (due
// entries plus bounded cascade/slot traffic).
//
// The Reference ignores Config.Shards, so it replays the workload once and
// every shard count is compared against that one record. The four replays
// are independent and run on every core; each is single-threaded and all
// costs are deterministic op counts — rows are byte-identical for any
// -parallel and any host.
func E24PGStateScale(seed int64) *metrics.Table {
	return e24Rows(seed).run(0)
}

// e24Flow is one handle of the E24 workload: its soft-state TTL and route.
type e24Flow struct {
	ttl   sim.Time
	route ad.Path
}

// e24Replay is what one table did under the E24 workload: its length before
// each sweep, each sweep's expiry set, and its final counters.
type e24Replay struct {
	lens    []int
	expired [][]uint64
	stats   pgstate.Stats
	len     int
}

// replayE24 installs every flow into s, then sweeps cohort by cohort.
func replayE24(s pgstate.Store, flows []e24Flow) e24Replay {
	for i, f := range flows {
		s.Install(0, uint64(i+1), f.route, 0, policy.Request{Src: f.route[0], Dst: f.route[1]}, f.ttl)
	}
	var r e24Replay
	for c := 0; c < e24Cohorts; c++ {
		now := sim.Time(c+1)*10*sim.Second + 1
		r.lens = append(r.lens, s.Len())
		r.expired = append(r.expired, s.ExpireDue(now))
	}
	r.stats, r.len = s.Stats(), s.Len()
	return r
}

// sameAs reports whether two replays expired the same handles sweep by
// sweep and ended with the same Stats and Len.
func (r e24Replay) sameAs(o e24Replay) bool {
	return slices.EqualFunc(r.expired, o.expired, slices.Equal[[]uint64]) &&
		r.stats == o.stats && r.len == o.len
}

// e24Rows makes one task for the Reference replay and one per shard count.
func e24Rows(seed int64) rows {
	// Every handle gets a cohort deadline; routes come from a small AD pool
	// so the link index has real fan-out. The flows are shared read-only.
	rng := rand.New(rand.NewSource(seed))
	flows := make([]e24Flow, e24Handles)
	for i := range flows {
		cohort := rng.Intn(e24Cohorts)
		a := ad.ID(rng.Intn(16) + 1)
		b := ad.ID(rng.Intn(16) + 17)
		flows[i] = e24Flow{sim.Time(cohort+1) * 10 * sim.Second, ad.Path{a, b}}
	}

	cfg := pgstate.Config{Kind: pgstate.Soft, TTL: 1000 * sim.Second}
	shardCounts := []int{1, 8, 32}
	var ref e24Replay
	tabs := make([]e24Replay, len(shardCounts))
	costs := make([]pgstate.SweepCost, len(shardCounts))
	tasks := []func(){func() { ref = replayE24(pgstate.NewReference(cfg), flows) }}
	for i, shards := range shardCounts {
		tasks = append(tasks, func() {
			cfg := cfg
			cfg.Shards = shards
			tab := pgstate.NewTable(cfg)
			tabs[i] = replayE24(tab, flows)
			costs[i] = tab.SweepCost()
		})
	}

	return rows{tasks, func() *metrics.Table {
		t := metrics.NewTable("E24 — PG state at scale: sharded table + timer wheel vs reference scan",
			"shards", "handles", "sweeps", "expired", "wheel-visits", "slot-walks",
			"scan-visits", "visit-ratio", "peak", "equiv")
		// The Reference pays a full scan of the surviving table each sweep;
		// the wheel pays the due cohort plus bounded slot/cascade traffic.
		scanVisits := 0
		for _, n := range ref.lens {
			scanVisits += n
		}
		for i, shards := range shardCounts {
			expired := 0
			for _, due := range tabs[i].expired {
				expired += len(due)
			}
			cost := costs[i]
			t.AddRow(shards, e24Handles, e24Cohorts, expired,
				cost.Entries, cost.Slots, scanVisits,
				metrics.Ratio(float64(cost.Entries), float64(scanVisits)),
				tabs[i].stats.Peak, yesNo(tabs[i].sameAs(ref)))
		}
		t.AddNote("%d soft-state handles in %d staggered-TTL cohorts; each sweep expires one cohort", e24Handles, e24Cohorts)
		t.AddNote("equiv = sharded table tracked the retained scan-based Reference exactly: per-sweep expiry sets, final Stats, final Len")
		t.AddNote("wheel-visits = entries popped from wheel slots/overflow across all sweeps (due + bounded cascade); scan-visits = entries the Reference's full scans walked")
		t.AddNote("slot-walks = timer-wheel slots visited, capped per sweep at levels x slots x shards regardless of table size")
		return t
	}}
}

// yesNo renders a boolean claim as a stable table cell.
func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

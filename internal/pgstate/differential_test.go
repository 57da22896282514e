package pgstate

// Differential harness: the wheel-and-arena Table and the scan-based
// Reference are driven in lockstep through randomized op sequences, and
// every observable — returned entries, booleans, expiry sets, handle
// orderings, Stats — must match at every step. The Reference is the
// executable specification; any divergence fails with the seed printed so
// the exact sequence replays with `-run TestDifferential -seed N`.

import (
	"flag"
	"math/rand"
	"testing"

	"repro/internal/ad"
	"repro/internal/policy"
	"repro/internal/sim"
)

var diffSeed = flag.Int64("seed", 0, "replay a specific differential-test seed (0 = derive per subtest)")

// diffOps is the op count per TestDifferential sequence: at least 10k
// randomized ops per Kind.
const diffOps = 12_000

// entryEqual compares two returned entries field by field (Route is a
// slice, so Entry is not comparable with ==).
func entryEqual(a, b Entry) bool {
	if len(a.Route) != len(b.Route) {
		return false
	}
	for i := range a.Route {
		if a.Route[i] != b.Route[i] {
			return false
		}
	}
	return a.Idx == b.Idx && a.Req == b.Req &&
		a.Installed == b.Installed && a.Deadline == b.Deadline
}

// diffWorld generates the workload: a small handle space (so installs
// overwrite and removes hit), a small AD set (so routes share links and
// HandlesCrossing has real fan-out), and a monotone clock whose steps are
// mostly sub-TTL with occasional jumps past the timer wheel's 2^32-tick
// horizon (forcing overflow-heap traffic and multi-level cascades).
type diffWorld struct {
	rng *rand.Rand
	now sim.Time
}

func (w *diffWorld) handle() uint64 { return uint64(w.rng.Intn(400)) + 1 }

func (w *diffWorld) route() ad.Path {
	n := 2 + w.rng.Intn(5)
	p := make(ad.Path, 0, n)
	last := ad.ID(0)
	for len(p) < n {
		id := ad.ID(w.rng.Intn(8) + 1)
		if id == last {
			continue
		}
		p = append(p, id)
		last = id
	}
	return p
}

// ttl picks a source-requested lifetime: usually 0 (table default) or a
// short explicit one, occasionally far beyond the wheel horizon.
func (w *diffWorld) ttl() sim.Time {
	switch w.rng.Intn(10) {
	case 0:
		return 0
	case 1:
		return 5000 * sim.Second // past the 2^32-microsecond wheel horizon
	default:
		return sim.Time(1+w.rng.Intn(40)) * sim.Second
	}
}

// advance moves the clock forward: usually a sub-second step, sometimes a
// multi-TTL jump, rarely a jump past the wheel horizon.
func (w *diffWorld) advance() {
	switch w.rng.Intn(20) {
	case 0:
		w.now += sim.Time(w.rng.Intn(120)) * sim.Second
	case 1:
		w.now += 6000 * sim.Second
	default:
		w.now += sim.Time(w.rng.Intn(500)) * sim.Millisecond
	}
}

// runDifferential drives ref and tab in lockstep for ops operations,
// failing on the first divergence.
func runDifferential(t *testing.T, seed int64, ref, tab Store, ops int) {
	t.Helper()
	w := &diffWorld{rng: rand.New(rand.NewSource(seed)), now: 1}
	for step := 0; step < ops; step++ {
		w.advance()
		switch op := w.rng.Intn(100); {
		case op < 30: // Install
			h := w.handle()
			route := w.route()
			idx := w.rng.Intn(len(route))
			req := policy.Request{Src: route[0], Dst: route[len(route)-1], Hour: uint8(w.rng.Intn(24))}
			ttl := w.ttl()
			ref.Install(w.now, h, route, idx, req, ttl)
			tab.Install(w.now, h, route, idx, req, ttl)
		case op < 50: // Lookup
			h := w.handle()
			re, rok := ref.Lookup(w.now, h)
			te, tok := tab.Lookup(w.now, h)
			if rok != tok || (rok && !entryEqual(re, te)) {
				t.Fatalf("seed %d step %d: Lookup(%d) diverged: ref=(%+v,%v) tab=(%+v,%v)",
					seed, step, h, re, rok, te, tok)
			}
		case op < 60: // Peek
			h := w.handle()
			re, rok := ref.Peek(w.now, h)
			te, tok := tab.Peek(w.now, h)
			if rok != tok || (rok && !entryEqual(re, te)) {
				t.Fatalf("seed %d step %d: Peek(%d) diverged: ref=(%+v,%v) tab=(%+v,%v)",
					seed, step, h, re, rok, te, tok)
			}
		case op < 75: // Refresh
			h := w.handle()
			ttl := w.ttl()
			if rok, tok := ref.Refresh(w.now, h, ttl), tab.Refresh(w.now, h, ttl); rok != tok {
				t.Fatalf("seed %d step %d: Refresh(%d) diverged: ref=%v tab=%v", seed, step, h, rok, tok)
			}
		case op < 85: // Remove
			h := w.handle()
			if rok, tok := ref.Remove(h), tab.Remove(h); rok != tok {
				t.Fatalf("seed %d step %d: Remove(%d) diverged: ref=%v tab=%v", seed, step, h, rok, tok)
			}
		case op < 90: // ExpireDue
			rd, td := ref.ExpireDue(w.now), tab.ExpireDue(w.now)
			if !handlesEqual(rd, td) {
				t.Fatalf("seed %d step %d: ExpireDue diverged:\nref=%v\ntab=%v", seed, step, rd, td)
			}
		case op < 96: // HandlesCrossing
			a := ad.ID(w.rng.Intn(8) + 1)
			b := ad.ID(w.rng.Intn(8) + 1)
			rh, th := ref.HandlesCrossing(a, b), tab.HandlesCrossing(a, b)
			if !handlesEqual(rh, th) {
				t.Fatalf("seed %d step %d: HandlesCrossing(%d,%d) diverged:\nref=%v\ntab=%v",
					seed, step, a, b, rh, th)
			}
		default: // Handles
			rh, th := ref.Handles(), tab.Handles()
			if !handlesEqual(rh, th) {
				t.Fatalf("seed %d step %d: Handles diverged:\nref=%v\ntab=%v", seed, step, rh, th)
			}
		}
		if rl, tl := ref.Len(), tab.Len(); rl != tl {
			t.Fatalf("seed %d step %d: Len diverged: ref=%d tab=%d", seed, step, rl, tl)
		}
		if rs, ts := ref.Stats(), tab.Stats(); rs != ts {
			t.Fatalf("seed %d step %d: Stats diverged:\nref=%+v\ntab=%+v", seed, step, rs, ts)
		}
	}
	// Final full-state audit: every remaining handle agrees entry-for-entry.
	rh, th := ref.Handles(), tab.Handles()
	if !handlesEqual(rh, th) {
		t.Fatalf("seed %d final: Handles diverged:\nref=%v\ntab=%v", seed, rh, th)
	}
	for _, h := range rh {
		re, rok := ref.Peek(w.now, h)
		te, tok := tab.Peek(w.now, h)
		if rok != tok || (rok && !entryEqual(re, te)) {
			t.Fatalf("seed %d final: entry %d diverged: ref=(%+v,%v) tab=(%+v,%v)", seed, h, re, rok, te, tok)
		}
	}
}

// TestDifferential is the headline equivalence proof: for every Kind, over
// several seeded sequences, the Table tracks the Reference through >= 10k
// randomized ops with zero divergence.
func TestDifferential(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"hard/1", Config{Kind: Hard}},
		{"hard/2", Config{Kind: Hard}},
		{"soft/1", Config{Kind: Soft, TTL: 10 * sim.Second}},
		{"soft/2", Config{Kind: Soft, TTL: 10 * sim.Second}},
		{"soft/3", Config{Kind: Soft, TTL: 10 * sim.Second}},
		{"capped/cap=32", Config{Kind: Capped, Capacity: 32}},
		{"capped/cap=200", Config{Kind: Capped, Capacity: 200}},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seed := *diffSeed
			if seed == 0 {
				seed = int64(42 + i*1000)
			}
			runDifferential(t, seed, NewReference(tc.cfg), NewTable(tc.cfg), diffOps)
		})
	}
}

// TestDifferentialManySeeds widens the net: shorter sequences across many
// seeds, on the soft discipline (the one with a timer wheel to get wrong).
func TestDifferentialManySeeds(t *testing.T) {
	cfg := Config{Kind: Soft, TTL: 7 * sim.Second}
	for seed := int64(1); seed <= 40; seed++ {
		runDifferential(t, seed, NewReference(cfg), NewTable(cfg), 1500)
	}
}

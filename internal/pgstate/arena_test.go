package pgstate

// Interplay between the link index and the arena's slot reuse: the
// documented Handles/HandlesCrossing semantics (expired-but-unswept
// entries stay visible until something drops them) must hold, and a
// reused arena slot must never resurrect the previous tenant's link-index
// edges.

import (
	"slices"
	"testing"

	"repro/internal/ad"
	"repro/internal/racecheck"
	"repro/internal/sim"
)

// TestExpiredUnsweptStaysVisible: an entry past its deadline that no op
// has yet dropped is still listed by Handles and HandlesCrossing — the
// documented contract ("call ExpireDue first for a live-only view") —
// and disappears from both the moment any path drops it.
func TestExpiredUnsweptStaysVisible(t *testing.T) {
	tab := NewTable(Config{Kind: Soft, TTL: 1 * sim.Second})
	tab.Install(0, 7, ad.Path{1, 2, 3}, 1, testReq, 0)
	past := 10 * sim.Second // well past the deadline, nothing swept yet
	if got := tab.Handles(); !handlesEqual(got, []uint64{7}) {
		t.Fatalf("expired-unswept entry missing from Handles: %v", got)
	}
	if got := tab.HandlesCrossing(2, 3); !handlesEqual(got, []uint64{7}) {
		t.Fatalf("expired-unswept entry missing from HandlesCrossing: %v", got)
	}
	// A lookup at the late clock drops it; both views go empty together.
	if _, ok := tab.Lookup(past, 7); ok {
		t.Fatal("expired entry returned live")
	}
	if got := tab.Handles(); len(got) != 0 {
		t.Fatalf("dropped entry still in Handles: %v", got)
	}
	if got := tab.HandlesCrossing(2, 3); len(got) != 0 {
		t.Fatalf("dropped entry still in HandlesCrossing: %v", got)
	}
}

// TestSlabReuseNoStaleEdges: Remove then Install reuses the released arena
// slot; the new tenant must carry only its own route's edges — none of the
// old tenant's.
func TestSlabReuseNoStaleEdges(t *testing.T) {
	tab := NewTable(Config{Kind: Hard})
	tab.Install(0, 1, ad.Path{1, 2, 3}, 1, testReq, 0)
	tab.Remove(1)
	// The freed slot is the only one on the free list; this install reuses it.
	tab.Install(0, 2, ad.Path{5, 6}, 0, testReq, 0)
	if got := tab.HandlesCrossing(1, 2); len(got) != 0 {
		t.Fatalf("old tenant's edge 1-2 resurrected: %v", got)
	}
	if got := tab.HandlesCrossing(2, 3); len(got) != 0 {
		t.Fatalf("old tenant's edge 2-3 resurrected: %v", got)
	}
	if got := tab.HandlesCrossing(5, 6); !handlesEqual(got, []uint64{2}) {
		t.Fatalf("new tenant's edge missing: %v", got)
	}
}

// TestOverwriteReplacesEdges: re-installing a handle with a different
// route swaps its link-index edges atomically — the old route's edges go,
// the new route's arrive, other handles are untouched.
func TestOverwriteReplacesEdges(t *testing.T) {
	tab := NewTable(Config{Kind: Soft})
	tab.Install(0, 1, ad.Path{1, 2, 3}, 1, testReq, 0)
	tab.Install(0, 9, ad.Path{2, 3}, 0, testReq, 0) // shares the 2-3 edge
	tab.Install(1, 1, ad.Path{1, 4, 3}, 1, testReq, 0)
	if got := tab.HandlesCrossing(1, 2); len(got) != 0 {
		t.Fatalf("overwritten route's 1-2 edge lingers: %v", got)
	}
	if got := tab.HandlesCrossing(2, 3); !handlesEqual(got, []uint64{9}) {
		t.Fatalf("2-3 edge wrong after overwrite: %v, want [9]", got)
	}
	if got := tab.HandlesCrossing(1, 4); !handlesEqual(got, []uint64{1}) {
		t.Fatalf("new route's 1-4 edge missing: %v", got)
	}
	if tab.Len() != 2 {
		t.Fatalf("overwrite changed residency: %d", tab.Len())
	}
}

// TestArenaSteadyStateNoGrowth: a sustained install/remove churn loop must
// recycle free-listed slots instead of growing new slabs.
func TestArenaSteadyStateNoGrowth(t *testing.T) {
	tab := NewTable(Config{Kind: Soft})
	for h := uint64(1); h <= slabSize; h++ {
		tab.Install(0, h, testRoute, 1, testReq, 0)
	}
	slabs := len(tab.arena.slabs)
	for round := 0; round < 50; round++ {
		for h := uint64(1); h <= slabSize; h += 2 {
			tab.Remove(h)
		}
		for h := uint64(1); h <= slabSize; h += 2 {
			tab.Install(sim.Time(round), h, testRoute, 1, testReq, 0)
		}
	}
	if got := len(tab.arena.slabs); got != slabs {
		t.Fatalf("steady-state churn grew the arena: %d -> %d slabs", slabs, got)
	}
	if tab.Len() != slabSize {
		t.Fatalf("churn lost entries: %d", tab.Len())
	}
}

// TestArenaRampLayout: the slabs ramp 16, 16, 32, 64, 128 and then stay at
// 256 records, indices are handed out in ascending order, and at maps each
// index to its own record, so no two live handles share one.
func TestArenaRampLayout(t *testing.T) {
	var a arena
	const n = 3*slabSize + 5
	seen := make(map[*rec]int32, n)
	for want := int32(0); want < n; want++ {
		idx := a.alloc()
		if idx != want {
			t.Fatalf("alloc %d returned index %d", want, idx)
		}
		r := a.at(idx)
		if prev, dup := seen[r]; dup {
			t.Fatalf("indices %d and %d share a record", prev, idx)
		}
		seen[r] = idx
		r.handle = uint64(idx)
	}
	for idx := int32(0); idx < n; idx++ {
		if h := a.at(idx).handle; h != uint64(idx) {
			t.Fatalf("at(%d) holds the record of %d", idx, h)
		}
	}
	var lens []int
	for _, s := range a.slabs {
		lens = append(lens, len(s))
	}
	want := []int{16, 16, 32, 64, 128, 256, 256, 256}
	if !slices.Equal(lens, want) {
		t.Fatalf("slab sizes %v, want %v", lens, want)
	}
}

// TestAllocsSmallTable: a table that never holds more than 16 entries — the
// simulator's per-PG tables — allocates one 16-record slab for its arena,
// not a full 256-record one.
func TestAllocsSmallTable(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	tab := NewTable(Config{Kind: Hard})
	for h := uint64(1); h <= 16; h++ {
		tab.Install(0, h, testRoute, 1, testReq, 0)
	}
	if len(tab.arena.slabs) != 1 || len(tab.arena.slabs[0]) != 16 {
		t.Fatalf("16 entries: %d slabs, first of %d records; want one of 16", len(tab.arena.slabs), len(tab.arena.slabs[0]))
	}
	// With the slab in place, churning within 16 entries allocates no
	// record: a remove and an install reuse the freed slot.
	if n := testing.AllocsPerRun(100, func() {
		tab.Remove(16)
		tab.Install(0, 16, testRoute, 1, testReq, 0)
	}); n != 0 {
		t.Errorf("remove+install at 16 entries: %v allocs, want 0", n)
	}
	if len(tab.arena.slabs) != 1 {
		t.Errorf("churn grew the arena to %d slabs", len(tab.arena.slabs))
	}
}

// TestAllocsNewTable: an empty table is its struct, its handle index, its
// link index and, for a soft table, one timer wheel; a capped table's LRU
// adds its struct, its map and its eviction hook. The data plane builds one
// table per AD a flow crosses, and the simulator one per PG.
func TestAllocsNewTable(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, tc := range []struct {
		cfg  Config
		want float64
	}{
		{Config{Kind: Hard}, 3},
		{Config{Kind: Soft}, 4},
		{Config{Kind: Capped}, 5},
	} {
		if n := testing.AllocsPerRun(100, func() { NewTable(tc.cfg) }); n != tc.want {
			t.Errorf("empty %s table: %v allocs, want %v", tc.cfg.Kind, n, tc.want)
		}
	}
}

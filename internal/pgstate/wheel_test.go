package pgstate

// White-box tests for the hierarchical timer wheel, pinning the behaviours
// the differential harness exercises only statistically: boundary
// deadlines, refresh rescheduling, cross-level cascades, mass expiry of a
// single slot, the overflow heap, and ExpireDue's ordering determinism.

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/sim"
)

// wheelFixture allocates n records with the given deadlines and schedules
// them all, returning the wheel, arena, and indices.
func wheelFixture(deadlines []sim.Time) (*wheel, *arena, []int32) {
	w := newWheel()
	a := &arena{}
	idxs := make([]int32, len(deadlines))
	for i, d := range deadlines {
		idx := a.alloc()
		r := a.at(idx)
		r.handle = uint64(i + 1)
		r.entry.Deadline = d
		w.schedule(a, idx, d)
		idxs[i] = idx
	}
	return w, a, idxs
}

func dueHandles(a *arena, due []int32) []uint64 {
	out := make([]uint64, 0, len(due))
	for _, i := range due {
		out = append(out, a.at(i).handle)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestWheelBoundaryDeadlines: Entry.expired is strict (Deadline < now), so
// advancing the wheel exactly to a deadline must NOT collect it — even
// when the deadline sits exactly on a slot or level boundary — and
// advancing one tick past must.
func TestWheelBoundaryDeadlines(t *testing.T) {
	boundaries := []sim.Time{
		1, 255, 256, 257, // level-0/1 slot edges
		1 << 16, 1<<16 + 1, // level-1/2 edge
		1 << 24, // level-2/3 edge
		1<<24 + 513,
	}
	for _, d := range boundaries {
		w, a, _ := wheelFixture([]sim.Time{d})
		if due := w.advance(a, d, nil); len(due) != 0 {
			t.Fatalf("deadline %d fired at now==deadline (strict < required): %v", d, dueHandles(a, due))
		}
		if due := w.advance(a, d+1, nil); len(due) != 1 {
			t.Fatalf("deadline %d did not fire at now=deadline+1", d)
		}
	}
}

// TestWheelRefreshReschedules: after a cancel+schedule to a later
// deadline, the old slot must no longer fire the record; the new deadline
// must.
func TestWheelRefreshReschedules(t *testing.T) {
	w, a, idxs := wheelFixture([]sim.Time{100})
	r := a.at(idxs[0])
	w.cancel(a, idxs[0])
	r.entry.Deadline = 5000
	w.schedule(a, idxs[0], 5000)
	if due := w.advance(a, 200, nil); len(due) != 0 {
		t.Fatalf("old slot fired after reschedule: %v", dueHandles(a, due))
	}
	if due := w.advance(a, 5001, nil); len(due) != 1 {
		t.Fatal("rescheduled deadline did not fire")
	}
}

// TestWheelCascade: a deadline scheduled at a coarse level must survive
// intermediate advances (which cascade it toward level 0 by rescheduling)
// and fire exactly when due.
func TestWheelCascade(t *testing.T) {
	const d = sim.Time(1<<16 + 700) // starts at level 2
	w, a, _ := wheelFixture([]sim.Time{d})
	// Walk time up in uneven steps that straddle level boundaries.
	for _, now := range []sim.Time{300, 1 << 8, 1<<16 - 1, 1 << 16, d - 1, d} {
		if due := w.advance(a, now, nil); len(due) != 0 {
			t.Fatalf("cascaded entry fired early at now=%d", now)
		}
	}
	if due := w.advance(a, d+1, nil); len(due) != 1 {
		t.Fatal("cascaded entry never fired")
	}
}

// TestWheelMassExpiry: many records sharing one deadline all pop in a
// single advance, and the per-advance cost tracks the due count rather
// than anything table-sized.
func TestWheelMassExpiry(t *testing.T) {
	const n = 2000
	deadlines := make([]sim.Time, n)
	for i := range deadlines {
		deadlines[i] = 1000
	}
	w, a, _ := wheelFixture(deadlines)
	due := w.advance(a, 1001, nil)
	if len(due) != n {
		t.Fatalf("mass expiry collected %d of %d", len(due), n)
	}
	got := dueHandles(a, due)
	for i, h := range got {
		if h != uint64(i+1) {
			t.Fatalf("handle %d missing from mass expiry", i+1)
		}
	}
}

// TestWheelOverflow: deadlines beyond the 2^32-tick horizon wait in the
// overflow heap, re-enter the wheel when the horizon reaches them, and a
// cancelled overflow record never fires.
func TestWheelOverflow(t *testing.T) {
	far := sim.Time(wheelSpan) + 12345
	w, a, idxs := wheelFixture([]sim.Time{far, far + 99})
	if a.at(idxs[0]).wSlot != wheelOverflow {
		t.Fatal("far deadline not parked in overflow")
	}
	w.cancel(a, idxs[1]) // stale heap element must be skipped on pop
	if due := w.advance(a, far-1, nil); len(due) != 0 {
		t.Fatalf("overflow fired early: %v", dueHandles(a, due))
	}
	due := w.advance(a, far+1000, nil)
	if got := dueHandles(a, due); len(got) != 1 || got[0] != 1 {
		t.Fatalf("overflow expiry = %v, want [1] (record 2 was cancelled)", got)
	}
}

// TestWheelSlotReuseGeneration: releasing a record parked in overflow and
// reusing its arena slot must not let the stale heap element fire the new
// tenant.
func TestWheelSlotReuseGeneration(t *testing.T) {
	far := sim.Time(wheelSpan) + 500
	w, a, idxs := wheelFixture([]sim.Time{far})
	w.cancel(a, idxs[0])
	a.release(idxs[0])
	idx2 := a.alloc()
	if idx2 != idxs[0] {
		t.Fatalf("free list did not reuse slot: got %d want %d", idx2, idxs[0])
	}
	r := a.at(idx2)
	r.handle = 7
	r.entry.Deadline = far + sim.Time(wheelSpan) // itself in overflow again
	w.schedule(a, idx2, r.entry.Deadline)
	// Advancing past the stale element's deadline must not collect the new
	// tenant (generation mismatch marks the old heap element dead).
	if due := w.advance(a, far+1, nil); len(due) != 0 {
		t.Fatalf("stale overflow element fired reused slot: %v", dueHandles(a, due))
	}
	if due := w.advance(a, r.entry.Deadline+1, nil); len(due) != 1 || a.at(due[0]).handle != 7 {
		t.Fatal("reused record did not fire at its own deadline")
	}
}

// TestExpireDueOrderingDeterminism: Table.ExpireDue returns ascending
// handles regardless of install order or wheel layout — the property
// simulation replay depends on.
func TestExpireDueOrderingDeterminism(t *testing.T) {
	build := func(perm []uint64) *Table {
		tab := NewTable(Config{Kind: Soft, TTL: 10 * sim.Second})
		for _, h := range perm {
			// Two deadline cohorts so each sweep collects a strict subset.
			ttl := sim.Time(5+int(h%2)*20) * sim.Second
			tab.Install(0, h, testRoute, 1, testReq, ttl)
		}
		return tab
	}
	handles := make([]uint64, 300)
	for i := range handles {
		handles[i] = uint64(i + 1)
	}
	rng := rand.New(rand.NewSource(99))
	var want []uint64
	for trial := 0; trial < 4; trial++ {
		perm := append([]uint64(nil), handles...)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		tab := build(perm)
		due := tab.ExpireDue(6 * sim.Second)
		if !sort.SliceIsSorted(due, func(i, j int) bool { return due[i] < due[j] }) {
			t.Fatalf("perm %d: ExpireDue not ascending: %v", trial, due)
		}
		if want == nil {
			want = due
		} else if !handlesEqual(due, want) {
			t.Fatalf("perm %d: ExpireDue differs from first layout", trial)
		}
		// The second cohort fires later, identically across layouts.
		rest := tab.ExpireDue(30 * sim.Second)
		if len(due)+len(rest) != len(handles) {
			t.Fatalf("perm %d: sweeps collected %d+%d of %d", trial, len(due), len(rest), len(handles))
		}
	}
}

// TestWheelSweepCostScalesWithDue: the whole point of the wheel — an
// ExpireDue over a huge table with few due entries must do work bounded by
// the due count plus the fixed slot walk, not the table size.
func TestWheelSweepCostScalesWithDue(t *testing.T) {
	const total = 100_000
	tab := NewTable(Config{Kind: Soft})
	for h := uint64(1); h <= total; h++ {
		ttl := 1000 * sim.Second
		if h <= 50 {
			ttl = 1 * sim.Second // the only due cohort
		}
		tab.Install(0, h, testRoute, 1, testReq, ttl)
	}
	before := tab.SweepCost()
	due := tab.ExpireDue(2 * sim.Second)
	cost := tab.SweepCost()
	if len(due) != 50 {
		t.Fatalf("due = %d, want 50", len(due))
	}
	visited := cost.Entries - before.Entries
	if visited > 5000 { // 50 due + bounded cascade traffic, nowhere near 100k
		t.Fatalf("sweep visited %d entries for 50 due in a %d-entry table", visited, total)
	}
	slots := cost.Slots - before.Slots
	if max := uint64(wheelLevels * wheelSlots); slots > max {
		t.Fatalf("sweep walked %d slots, cap is %d", slots, max)
	}
}

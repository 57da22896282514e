package dvcore

import (
	"testing"

	"repro/internal/ad"
	"repro/internal/racecheck"
)

// testContexts covers destinations AD1..AD9 in four QOS classes, every key
// the tests below use.
var testContexts = NewContexts([]ad.ID{1, 2, 3, 4, 5, 6, 7, 8, 9}, 4)

func TestTableSetGet(t *testing.T) {
	tbl := NewTable(testContexts)
	k := Key{Dest: 5, QOS: 1}
	e := Entry{Key: k, Metric: 3, NextHop: 2}
	if !tbl.Set(e) {
		t.Error("first Set reported no change")
	}
	if tbl.Set(e) {
		t.Error("identical Set reported change")
	}
	got, ok := tbl.Get(k)
	if !ok || got != e {
		t.Errorf("Get = %+v,%v", got, ok)
	}
	if _, ok := tbl.Get(Key{Dest: 9}); ok {
		t.Error("Get of absent key succeeded")
	}
	if tbl.Len() != 1 {
		t.Errorf("Len = %d", tbl.Len())
	}
	e.Metric = 4
	if !tbl.Set(e) {
		t.Error("metric change reported no change")
	}
}

// takeDirty returns the keys of the table's dirty contexts and clears them.
func takeDirty(tbl *Table) []Key {
	var keys []Key
	for _, i := range tbl.dirty.Take() {
		keys = append(keys, tbl.ctx.Key(int(i)))
	}
	return keys
}

// TestTableDirtyTracking: a change marks its context dirty once, a no-op
// Set marks nothing, and the dirty contexts come out in (dest, qos) order
// whatever order they changed in.
func TestTableDirtyTracking(t *testing.T) {
	tbl := NewTable(testContexts)
	tbl.Set(Entry{Key: Key{Dest: 2, QOS: 1}, Metric: 1, NextHop: 9})
	tbl.Set(Entry{Key: Key{Dest: 2, QOS: 0}, Metric: 1, NextHop: 9})
	tbl.Set(Entry{Key: Key{Dest: 1, QOS: 3}, Metric: 1, NextHop: 9})
	tbl.Set(Entry{Key: Key{Dest: 2, QOS: 1}, Metric: 2, NextHop: 9})
	if d := takeDirty(tbl); len(d) != 3 || d[0] != (Key{Dest: 1, QOS: 3}) || d[1] != (Key{Dest: 2, QOS: 0}) || d[2] != (Key{Dest: 2, QOS: 1}) {
		t.Errorf("dirty = %v, want 1/3, 2/0, 2/1", d)
	}
	if len(tbl.dirty.list) != 0 {
		t.Error("dirty set not cleared")
	}
	// Unchanged set does not re-dirty.
	tbl.Set(Entry{Key: Key{Dest: 2, QOS: 0}, Metric: 1, NextHop: 9})
	if len(tbl.dirty.list) != 0 {
		t.Error("no-op Set dirtied the table")
	}
}

// TestTableEntriesSorted: walking the table's slots in index order, as a
// full-table answer does, yields its entries sorted by (dest, qos) whatever
// order they were set in.
func TestTableEntriesSorted(t *testing.T) {
	tbl := NewTable(testContexts)
	tbl.Set(Entry{Key: Key{Dest: 2, QOS: 1}, Metric: 1, NextHop: 9})
	tbl.Set(Entry{Key: Key{Dest: 2, QOS: 0}, Metric: 1, NextHop: 9})
	tbl.Set(Entry{Key: Key{Dest: 1, QOS: 3}, Metric: 1, NextHop: 9})
	var es []Entry
	for i, ok := range tbl.present {
		if ok {
			es = append(es, tbl.entries[i])
		}
	}
	if len(es) != 3 {
		t.Fatalf("entries = %d", len(es))
	}
	if es[0].Key != (Key{Dest: 1, QOS: 3}) || es[1].Key != (Key{Dest: 2, QOS: 0}) || es[2].Key != (Key{Dest: 2, QOS: 1}) {
		t.Errorf("order = %v", es)
	}
}

func TestNextHop(t *testing.T) {
	tbl := NewTable(testContexts)
	tbl.Set(Entry{Key: Key{Dest: 1}, NextHop: 4})
	if tbl.NextHop(Key{Dest: 1}) != 4 {
		t.Error("NextHop wrong")
	}
	if tbl.NextHop(Key{Dest: 2}) != ad.Invalid {
		t.Error("NextHop of absent key not Invalid")
	}
}

// TestLearn walks one route through the distance-vector rule: each step
// offers it from a neighbour and checks whether the table changed and what
// it holds after.
func TestLearn(t *testing.T) {
	const inf = 16
	k := Key{Dest: 9, QOS: 1}
	tbl := NewTable(testContexts)
	for _, st := range []struct {
		name    string
		metric  uint32
		from    ad.ID
		flags   uint8
		changed bool
		want    Entry
		have    bool
	}{
		{"a fresh unreachable is not learned", inf + 3, 2, 0, false, Entry{}, false},
		{"a fresh route is learned", 5, 2, 1, true, Entry{Key: k, Metric: 5, NextHop: 2, Flags: 1}, true},
		{"the next hop gets worse and is accepted", 8, 2, 0, true, Entry{Key: k, Metric: 8, NextHop: 2}, true},
		{"another neighbour's worse route is ignored", 9, 3, 0, false, Entry{Key: k, Metric: 8, NextHop: 2}, true},
		{"another neighbour's equal route is ignored", 8, 3, 0, false, Entry{Key: k, Metric: 8, NextHop: 2}, true},
		{"another neighbour's better route replaces it", 4, 3, 2, true, Entry{Key: k, Metric: 4, NextHop: 3, Flags: 2}, true},
		{"the same offer again changes nothing", 4, 3, 2, false, Entry{Key: k, Metric: 4, NextHop: 3, Flags: 2}, true},
		{"the next hop withdraws", inf + 1, 3, 2, true, Entry{Key: k, Metric: inf, NextHop: ad.Invalid, Flags: 2}, true},
		{"an unreachable from another neighbour is ignored", inf, 4, 0, false, Entry{Key: k, Metric: inf, NextHop: ad.Invalid, Flags: 2}, true},
		{"any reachable route replaces a withdrawn one", 15, 4, 0, true, Entry{Key: k, Metric: 15, NextHop: 4}, true},
	} {
		if got := tbl.Learn(k, st.metric, inf, st.from, st.flags); got != st.changed {
			t.Errorf("%s: Learn = %v, want %v", st.name, got, st.changed)
		}
		if e, ok := tbl.Get(k); ok != st.have || e != st.want {
			t.Errorf("%s: entry = %+v,%v, want %+v,%v", st.name, e, ok, st.want, st.have)
		}
		if st.want.NextHop == ad.Invalid && st.have && tbl.NextHop(k) != ad.Invalid {
			t.Errorf("%s: NextHop = %v after a withdrawal", st.name, tbl.NextHop(k))
		}
	}
}

func TestPoison(t *testing.T) {
	tbl := NewTable(testContexts)
	tbl.Set(Entry{Key: Key{Dest: 1}, Metric: 3, NextHop: 7, Flags: 1})
	tbl.Set(Entry{Key: Key{Dest: 2}, Metric: 4, NextHop: 8})
	takeDirty(tbl)
	if !tbl.Poison(7, 16) {
		t.Fatal("Poison(7) reported no change")
	}
	if e, _ := tbl.Get(Key{Dest: 1}); e != (Entry{Key: Key{Dest: 1}, Metric: 16, NextHop: ad.Invalid, Flags: 1}) {
		t.Errorf("poisoned entry = %+v, want metric 16, no next hop, flags kept", e)
	}
	if e, _ := tbl.Get(Key{Dest: 2}); e.NextHop != 8 || e.Metric != 4 {
		t.Errorf("route via another neighbour changed: %+v", e)
	}
	if d := takeDirty(tbl); len(d) != 1 || d[0].Dest != 1 {
		t.Errorf("dirty after Poison = %v", d)
	}
	if tbl.Poison(7, 16) {
		t.Error("second Poison(7) reported a change")
	}
}

// TestViaNeighbor: Poison finds every route through the neighbour, in any
// QOS class, and nothing for a neighbour no route uses.
func TestViaNeighbor(t *testing.T) {
	tbl := NewTable(testContexts)
	tbl.Set(Entry{Key: Key{Dest: 1}, Metric: 2, NextHop: 7})
	tbl.Set(Entry{Key: Key{Dest: 2}, Metric: 2, NextHop: 8})
	tbl.Set(Entry{Key: Key{Dest: 3, QOS: 1}, Metric: 2, NextHop: 7})
	takeDirty(tbl)
	if tbl.Poison(99, 16) || len(takeDirty(tbl)) != 0 {
		t.Error("Poison(99) changed the table")
	}
	if !tbl.Poison(7, 16) {
		t.Fatal("Poison(7) missed the routes via 7")
	}
	if d := takeDirty(tbl); len(d) != 2 || d[0] != (Key{Dest: 1}) || d[1] != (Key{Dest: 3, QOS: 1}) {
		t.Errorf("routes via 7 = %v, want 1/0 and 3/1", d)
	}
}

// TestContexts: context numbers run in (dest, qos) order over the graph's
// positions, sparse IDs included, and keys outside the graph or the routed
// classes have none.
func TestContexts(t *testing.T) {
	ctx := NewContexts([]ad.ID{2, 7, 40}, 2)
	if ctx.Len() != 6 {
		t.Fatalf("Len = %d, want 6", ctx.Len())
	}
	for i := 0; i < ctx.Len(); i++ {
		k := ctx.Key(i)
		if got := ctx.Index(k); got != i {
			t.Errorf("Index(Key(%d) = %v) = %d", i, k, got)
		}
		if i > 0 {
			if prev := ctx.Key(i - 1); prev.Dest > k.Dest || (prev.Dest == k.Dest && prev.QOS >= k.QOS) {
				t.Errorf("Key(%d) = %v does not follow Key(%d) = %v", i, k, i-1, prev)
			}
		}
	}
	for _, k := range []Key{{Dest: 3}, {Dest: 40, QOS: 2}, {Dest: ad.Invalid}} {
		if got := ctx.Index(k); got != -1 {
			t.Errorf("Index(%v) = %d, want -1", k, got)
		}
	}
	tbl := NewTable(ctx)
	if tbl.Learn(Key{Dest: 3}, 1, 16, 2, 0) || tbl.Len() != 0 {
		t.Error("Learn of a key outside the contexts changed the table")
	}
	defer func() {
		if recover() == nil {
			t.Error("Set of a key outside the contexts did not panic")
		}
	}()
	tbl.Set(Entry{Key: Key{Dest: 3}})
}

// TestAllocsDVTable pins the per-message table operations at zero
// allocations: Get, Set, Learn and Poison on a built table index its
// context slices and never grow them.
func TestAllocsDVTable(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	tbl := NewTable(testContexts)
	for d := ad.ID(1); d <= 9; d++ {
		tbl.Set(Entry{Key: Key{Dest: d, QOS: 1}, Metric: uint32(d), NextHop: 1 + d%3})
	}
	metric := uint32(0)
	if n := testing.AllocsPerRun(200, func() {
		metric++
		for d := ad.ID(1); d <= 9; d++ {
			k := Key{Dest: d, QOS: 1}
			if e, ok := tbl.Get(k); ok {
				e.Flags ^= 1
				tbl.Set(e)
			}
			tbl.Learn(Key{Dest: d, QOS: 2}, metric%16, 16, 1+d%3, 0)
		}
		tbl.Poison(2, 16)
	}); n != 0 {
		t.Errorf("Get/Set/Learn/Poison: %v allocs, want 0", n)
	}
}

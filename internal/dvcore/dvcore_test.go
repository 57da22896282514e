package dvcore

import (
	"testing"

	"repro/internal/ad"
)

func TestTableSetGet(t *testing.T) {
	tbl := NewTable()
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

func TestTableDirtyTracking(t *testing.T) {
	tbl := NewTable()
	tbl.Set(Entry{Key: Key{Dest: 1}, Metric: 1, NextHop: 2})
	tbl.Set(Entry{Key: Key{Dest: 3}, Metric: 1, NextHop: 2})
	if len(tbl.dirty) == 0 {
		t.Error("no dirty keys after sets")
	}
	dirty := tbl.TakeDirty()
	if len(dirty) != 2 || dirty[0].Dest != 1 || dirty[1].Dest != 3 {
		t.Errorf("dirty = %v", dirty)
	}
	if len(tbl.dirty) != 0 {
		t.Error("dirty set not cleared")
	}
	// Unchanged set does not re-dirty.
	tbl.Set(Entry{Key: Key{Dest: 1}, Metric: 1, NextHop: 2})
	if len(tbl.dirty) != 0 {
		t.Error("no-op Set dirtied the table")
	}
	// Delete dirties.
	if !tbl.Delete(Key{Dest: 1}) {
		t.Error("Delete existing = false")
	}
	if tbl.Delete(Key{Dest: 1}) {
		t.Error("Delete absent = true")
	}
	if d := tbl.TakeDirty(); len(d) != 1 || d[0].Dest != 1 {
		t.Errorf("dirty after delete = %v", d)
	}
}

func TestTableEntriesSorted(t *testing.T) {
	tbl := NewTable()
	tbl.Set(Entry{Key: Key{Dest: 2, QOS: 1}, Metric: 1, NextHop: 9})
	tbl.Set(Entry{Key: Key{Dest: 2, QOS: 0}, Metric: 1, NextHop: 9})
	tbl.Set(Entry{Key: Key{Dest: 1, QOS: 3}, Metric: 1, NextHop: 9})
	es := tbl.Entries()
	if len(es) != 3 {
		t.Fatalf("entries = %d", len(es))
	}
	if es[0].Key != (Key{Dest: 1, QOS: 3}) || es[1].Key != (Key{Dest: 2, QOS: 0}) || es[2].Key != (Key{Dest: 2, QOS: 1}) {
		t.Errorf("order = %v", es)
	}
}

func TestViaNeighbor(t *testing.T) {
	tbl := NewTable()
	tbl.Set(Entry{Key: Key{Dest: 1}, NextHop: 7})
	tbl.Set(Entry{Key: Key{Dest: 2}, NextHop: 8})
	tbl.Set(Entry{Key: Key{Dest: 3, QOS: 1}, NextHop: 7})
	ks := tbl.ViaNeighbor(7)
	if len(ks) != 2 || ks[0].Dest != 1 || ks[1].Dest != 3 {
		t.Errorf("ViaNeighbor = %v", ks)
	}
	if len(tbl.ViaNeighbor(99)) != 0 {
		t.Error("ViaNeighbor(99) nonempty")
	}
}

func TestNextHop(t *testing.T) {
	tbl := NewTable()
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
	tbl := NewTable()
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
	tbl := NewTable()
	tbl.Set(Entry{Key: Key{Dest: 1}, Metric: 3, NextHop: 7, Flags: 1})
	tbl.Set(Entry{Key: Key{Dest: 2}, Metric: 4, NextHop: 8})
	tbl.TakeDirty()
	if !tbl.Poison(7, 16) {
		t.Fatal("Poison(7) reported no change")
	}
	if e, _ := tbl.Get(Key{Dest: 1}); e != (Entry{Key: Key{Dest: 1}, Metric: 16, NextHop: ad.Invalid, Flags: 1}) {
		t.Errorf("poisoned entry = %+v, want metric 16, no next hop, flags kept", e)
	}
	if e, _ := tbl.Get(Key{Dest: 2}); e.NextHop != 8 || e.Metric != 4 {
		t.Errorf("route via another neighbour changed: %+v", e)
	}
	if d := tbl.TakeDirty(); len(d) != 1 || d[0].Dest != 1 {
		t.Errorf("dirty after Poison = %v", d)
	}
	if tbl.Poison(7, 16) {
		t.Error("second Poison(7) reported a change")
	}
}

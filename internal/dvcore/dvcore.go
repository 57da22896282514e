// Package dvcore provides the routing-table machinery shared by the
// distance-vector family of protocols in this repository (plain DV, ECMA,
// and the EGP baseline): a (destination, QOS)-keyed table with change
// tracking for triggered updates.
package dvcore

import (
	"sort"

	"repro/internal/ad"
	"repro/internal/policy"
)

// Key identifies a routing-table entry: a destination AD and a QOS class
// (protocols without QOS routing use class 0).
type Key struct {
	Dest ad.ID
	QOS  policy.QOS
}

// Entry is one routing-table row.
type Entry struct {
	Key     Key
	Metric  uint32
	NextHop ad.ID
	// Flags carries protocol-specific bits (e.g. ECMA's traversed-down
	// marker).
	Flags uint8
}

// Table is a distance-vector routing table with dirty-key tracking: every
// mutation records the key so the protocol can emit triggered updates for
// exactly the changed routes.
type Table struct {
	entries map[Key]Entry
	dirty   map[Key]struct{}
}

// NewTable returns an empty table.
func NewTable() *Table {
	return &Table{
		entries: make(map[Key]Entry),
		dirty:   make(map[Key]struct{}),
	}
}

// Get returns the entry for k, if present.
func (t *Table) Get(k Key) (Entry, bool) {
	e, ok := t.entries[k]
	return e, ok
}

// Set installs e and marks its key dirty if anything changed. It reports
// whether the table changed.
func (t *Table) Set(e Entry) bool {
	old, ok := t.entries[e.Key]
	if ok && old == e {
		return false
	}
	t.entries[e.Key] = e
	t.dirty[e.Key] = struct{}{}
	return true
}

// Delete removes the entry for k, marking it dirty if it existed.
func (t *Table) Delete(k Key) bool {
	if _, ok := t.entries[k]; !ok {
		return false
	}
	delete(t.entries, k)
	t.dirty[k] = struct{}{}
	return true
}

// Len returns the number of entries.
func (t *Table) Len() int { return len(t.entries) }

// Entries returns all entries sorted by (dest, qos) for deterministic
// iteration.
func (t *Table) Entries() []Entry {
	out := make([]Entry, 0, len(t.entries))
	for _, e := range t.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key.Dest != out[j].Key.Dest {
			return out[i].Key.Dest < out[j].Key.Dest
		}
		return out[i].Key.QOS < out[j].Key.QOS
	})
	return out
}

// NextHop returns the next hop for k, or Invalid if absent.
func (t *Table) NextHop(k Key) ad.ID {
	if e, ok := t.entries[k]; ok {
		return e.NextHop
	}
	return ad.Invalid
}

// TakeDirty returns the keys dirtied since the last call, sorted, and
// clears the dirty set.
func (t *Table) TakeDirty() []Key {
	out := make([]Key, 0, len(t.dirty))
	for k := range t.dirty {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dest != out[j].Dest {
			return out[i].Dest < out[j].Dest
		}
		return out[i].QOS < out[j].QOS
	})
	clear(t.dirty)
	return out
}

// HasDirty reports whether un-taken dirty keys exist.
func (t *Table) HasDirty() bool { return len(t.dirty) > 0 }

// ViaNeighbor returns the keys of all entries whose next hop is n.
func (t *Table) ViaNeighbor(n ad.ID) []Key {
	var out []Key
	for k, e := range t.entries {
		if e.NextHop == n {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dest != out[j].Dest {
			return out[i].Dest < out[j].Dest
		}
		return out[i].QOS < out[j].QOS
	})
	return out
}

// FollowNextHops traces the hop-by-hop forwarding path for key k from src,
// consulting lookup for each AD's table. It returns the traversed path and
// an outcome: delivered (reached k.Dest), looped (revisited an AD), or
// black-holed (an AD had no route).
func FollowNextHops(src ad.ID, k Key, lookup func(ad.ID) *Table) (path ad.Path, delivered, looped bool) {
	cur := src
	seen := map[ad.ID]bool{}
	path = ad.Path{cur}
	for {
		if cur == k.Dest {
			return path, true, false
		}
		if seen[cur] {
			return path, false, true
		}
		seen[cur] = true
		tbl := lookup(cur)
		if tbl == nil {
			return path, false, false
		}
		nh := tbl.NextHop(k)
		if nh == ad.Invalid {
			return path, false, false
		}
		cur = nh
		path = append(path, cur)
	}
}

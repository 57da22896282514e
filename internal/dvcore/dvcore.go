// Package dvcore is the distance-vector protocol that plain DV and ECMA
// share: a (destination, QOS)-keyed table with change tracking for
// triggered updates, the distance-vector rule that updates it, and the node
// and core.System built on them. The two designs differ only in a Design:
// a name, an infinity, a QOS class count and the rule that decides which
// routes go to which neighbour.
package dvcore

import (
	"fmt"
	"slices"

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

// Contexts numbers the routing contexts of a graph: (destination, QOS) for
// every AD of the graph and QOS class below the classes routed. Context
// (d, q) is Position(d)*classes + q, so index order is (dest, qos) order.
// One Contexts serves every table of a system; it holds the graph's IDs,
// which the graph must keep for the system's life.
type Contexts struct {
	ids     []ad.ID
	classes int
}

// NewContexts numbers the contexts over ids, a graph's IDs in ascending
// order, and classes QOS classes.
func NewContexts(ids []ad.ID, classes int) Contexts {
	return Contexts{ids: ids, classes: classes}
}

// Len returns the number of contexts.
func (c Contexts) Len() int { return len(c.ids) * c.classes }

// Index returns k's number, or -1 when its destination is not in the graph
// or its QOS class is not routed.
func (c Contexts) Index(k Key) int {
	if int(k.QOS) >= c.classes {
		return -1
	}
	p := ad.Position(c.ids, k.Dest)
	if p < 0 {
		return -1
	}
	return p*c.classes + int(k.QOS)
}

// Key returns the context numbered i.
func (c Contexts) Key(i int) Key {
	return Key{Dest: c.ids[i/c.classes], QOS: policy.QOS(i % c.classes)}
}

// Dirty is a set of context numbers to advertise: the ones marked since the
// last Take, each listed once.
type Dirty struct {
	list []int32
	on   []bool
}

// NewDirty returns an empty set over n contexts.
func NewDirty(n int) Dirty { return Dirty{on: make([]bool, n)} }

// Mark adds context i.
func (d *Dirty) Mark(i int) {
	if !d.on[i] {
		d.on[i] = true
		d.list = append(d.list, int32(i))
	}
}

// Take returns the marked contexts in ascending order, which is (dest, qos)
// order, and empties the set. The slice is the set's, valid until the next
// Mark.
func (d *Dirty) Take() []int32 {
	slices.Sort(d.list)
	for _, i := range d.list {
		d.on[i] = false
	}
	out := d.list
	d.list = d.list[:0]
	return out
}

// Table is a distance-vector routing table with dirty-key tracking: every
// mutation records the key so the protocol can emit triggered updates for
// exactly the changed routes. It is laid out by context number.
type Table struct {
	ctx     Contexts
	entries []Entry
	present []bool
	n       int
	dirty   Dirty
}

// NewTable returns an empty table over the given contexts.
func NewTable(ctx Contexts) *Table {
	return &Table{
		ctx:     ctx,
		entries: make([]Entry, ctx.Len()),
		present: make([]bool, ctx.Len()),
		dirty:   NewDirty(ctx.Len()),
	}
}

// Get returns the entry for k, if present.
func (t *Table) Get(k Key) (Entry, bool) {
	if i := t.ctx.Index(k); i >= 0 && t.present[i] {
		return t.entries[i], true
	}
	return Entry{}, false
}

// Set installs e and marks its key dirty if anything changed. It reports
// whether the table changed. A key outside the table's contexts panics.
func (t *Table) Set(e Entry) bool {
	i := t.ctx.Index(e.Key)
	if i < 0 {
		panic(fmt.Sprintf("dvcore: %v/%d is not one of the table's contexts", e.Key.Dest, e.Key.QOS))
	}
	return t.set(i, e)
}

func (t *Table) set(i int, e Entry) bool {
	if t.present[i] && t.entries[i] == e {
		return false
	}
	if !t.present[i] {
		t.present[i] = true
		t.n++
	}
	t.entries[i] = e
	t.dirty.Mark(i)
	return true
}

// Len returns the number of entries.
func (t *Table) Len() int { return t.n }

// NextHop returns the next hop for k, or Invalid if absent.
func (t *Table) NextHop(k Key) ad.ID {
	e, _ := t.Get(k)
	return e.NextHop
}

// Learn applies the distance-vector rule to a route for k that neighbour
// from offers at metric (clamped to inf, the unreachable metric), with the
// given flags. An offer from the current next hop is authoritative, better or
// worse: at inf it leaves the route unreachable with no next hop. Any other
// neighbour replaces the route only with a better, reachable metric. Learn
// reports whether the table changed; a key outside the table's contexts
// changes nothing.
func (t *Table) Learn(k Key, metric, inf uint32, from ad.ID, flags uint8) bool {
	i := t.ctx.Index(k)
	if i < 0 {
		return false
	}
	metric = min(metric, inf)
	cur, have := t.entries[i], t.present[i]
	switch {
	case have && cur.NextHop == from:
		e := Entry{Key: k, Metric: metric, NextHop: from, Flags: flags}
		if metric == inf {
			e.NextHop = ad.Invalid
		}
		return t.set(i, e)
	case (!have || metric < cur.Metric) && metric < inf:
		return t.set(i, Entry{Key: k, Metric: metric, NextHop: from, Flags: flags})
	}
	return false
}

// Poison makes every route through neighbour nb unreachable: metric inf, no
// next hop, flags kept. It reports whether the table changed.
func (t *Table) Poison(nb ad.ID, inf uint32) bool {
	changed := false
	for i, ok := range t.present {
		if e := t.entries[i]; ok && e.NextHop == nb {
			e.Metric, e.NextHop = inf, ad.Invalid
			changed = t.set(i, e) || changed
		}
	}
	return changed
}

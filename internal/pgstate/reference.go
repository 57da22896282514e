package pgstate

// Reference is the retained scan-based handle table: one LRU, one flat
// link index, full-table scans for expiry. It is the executable
// specification for Table — every observable behaviour (returned entries,
// booleans, handle orderings, expiry sets, Stats) is defined by this
// implementation, and differential_test.go drives the two in lockstep
// through the Store interface to prove Table equivalent.
//
// Keep this implementation boring. Its value is that it is obviously
// correct; performance work belongs in Table.

import (
	"slices"
	"sort"

	"repro/internal/ad"
	"repro/internal/cache"
	"repro/internal/policy"
	"repro/internal/sim"
)

// Reference is one PG's handle table under a lifecycle discipline. Not
// safe for concurrent use.
type Reference struct {
	cfg Config
	lru *cache.LRU[uint64, *Entry]
	// byLink maps each adjacency (canonical low-high pair) crossed by an
	// entry's route to the handles depending on it. Maintained in step
	// with lru.
	byLink map[[2]ad.ID]map[uint64]struct{}
	stats  Stats
}

// NewReference builds an empty reference table. Unknown kinds panic,
// matching NewTable.
func NewReference(cfg Config) *Reference {
	cfg, err := cfg.Normalize()
	if err != nil {
		panic(err)
	}
	capacity := 0 // unbounded for hard and soft state
	if cfg.Kind == Capped {
		capacity = cfg.Capacity
	}
	t := &Reference{
		cfg:    cfg,
		lru:    cache.NewLRU[uint64, *Entry](capacity),
		byLink: make(map[[2]ad.ID]map[uint64]struct{}),
	}
	t.lru.OnEvict = func(h uint64, e *Entry) {
		t.stats.Evictions++
		unindexRoute(t.byLink, h, e.Route)
	}
	return t
}

// drop removes h and its index edges, reporting whether it was present.
func (t *Reference) drop(h uint64) bool {
	if e, ok := t.lru.Peek(h); ok {
		unindexRoute(t.byLink, h, e.Route)
	}
	return t.lru.Delete(h)
}

// Kind returns the table's lifecycle discipline.
func (t *Reference) Kind() Kind { return t.cfg.Kind }

// TTL returns the soft-state lifetime (zero for other kinds).
func (t *Reference) TTL() sim.Time {
	if t.cfg.Kind != Soft {
		return 0
	}
	return t.cfg.TTL
}

// Install adds (or overwrites) the entry for handle h.
func (t *Reference) Install(now sim.Time, h uint64, route ad.Path, idx int, req policy.Request, ttl sim.Time) {
	t.stats.Installs++
	if old, ok := t.lru.Peek(h); ok {
		unindexRoute(t.byLink, h, old.Route)
	}
	t.lru.Put(h, &Entry{
		Route: route, Idx: idx, Req: req,
		Installed: now, Deadline: deadlineFor(t.cfg, now, ttl),
	})
	indexRoute(t.byLink, h, route)
	if n := t.lru.Len(); n > t.stats.Peak {
		t.stats.Peak = n
	}
}

// Lookup returns the live entry for h, counting a hit or miss and
// touching recency; expired entries drop and count as miss + expiration.
func (t *Reference) Lookup(now sim.Time, h uint64) (Entry, bool) {
	e, ok := t.lru.Get(h)
	if ok && e.expired(now) {
		t.drop(h)
		t.stats.Expirations++
		ok = false
	}
	if !ok {
		t.stats.Misses++
		return Entry{}, false
	}
	t.stats.Hits++
	return *e, true
}

// Peek returns the live entry for h without touching recency or the
// hit/miss counters; expired entries still drop.
func (t *Reference) Peek(now sim.Time, h uint64) (Entry, bool) {
	e, ok := t.lru.Peek(h)
	if !ok {
		return Entry{}, false
	}
	if e.expired(now) {
		t.drop(h)
		t.stats.Expirations++
		return Entry{}, false
	}
	return *e, true
}

// Refresh extends h's soft-state deadline and touches recency.
func (t *Reference) Refresh(now sim.Time, h uint64, ttl sim.Time) bool {
	e, ok := t.lru.Get(h)
	if !ok {
		return false
	}
	if e.expired(now) {
		t.drop(h)
		t.stats.Expirations++
		return false
	}
	e.Deadline = deadlineFor(t.cfg, now, ttl)
	t.stats.Refreshes++
	return true
}

// Remove deletes h, reporting whether it was present.
func (t *Reference) Remove(h uint64) bool { return t.drop(h) }

// ExpireDue scans the whole table, drops every entry whose deadline has
// passed, and returns their handles in ascending order.
func (t *Reference) ExpireDue(now sim.Time) []uint64 {
	var due []uint64
	t.lru.Range(func(h uint64, e *Entry) bool {
		if e.expired(now) {
			due = append(due, h)
		}
		return true
	})
	slices.Sort(due)
	for _, h := range due {
		t.drop(h)
		t.stats.Expirations++
	}
	return due
}

// Handles returns the live handles in ascending order, including
// expired-but-unswept entries.
func (t *Reference) Handles() []uint64 {
	out := t.lru.Keys()
	slices.Sort(out)
	return out
}

// HandlesCrossing returns, in ascending order, the handles whose routes
// traverse the a-b adjacency (either direction).
func (t *Reference) HandlesCrossing(a, b ad.ID) []uint64 {
	m := t.byLink[linkOf(a, b)]
	out := make([]uint64, 0, len(m))
	for h := range m {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Len returns the current entry count.
func (t *Reference) Len() int { return t.lru.Len() }

// Stats returns the table's counters with Resident filled in.
func (t *Reference) Stats() Stats {
	s := t.stats
	s.Resident = t.lru.Len()
	return s
}

package pgstate

// Reference is the retained scan-based handle table: one map of entries,
// each stamped with its last use, one flat link index, and full-table
// scans for expiry and for the capped eviction. It is the executable
// specification for Table — every observable behaviour (returned entries,
// booleans, handle orderings, expiry sets, Stats) is defined by this
// implementation, and differential_test.go drives the two in lockstep
// through the Store interface to prove Table equivalent.
//
// Keep this implementation boring. Its value is that it is obviously
// correct; performance work belongs in Table.

import (
	"slices"

	"repro/internal/ad"
	"repro/internal/policy"
	"repro/internal/sim"
)

// Reference is one PG's handle table under a lifecycle discipline. Not
// safe for concurrent use.
type Reference struct {
	cfg     Config
	entries map[uint64]*refEntry
	// clock is the last use stamp handed out.
	clock uint64
	// byLink maps each adjacency (canonical low-high pair) crossed by an
	// entry's route to the handles depending on it. Maintained in step
	// with entries.
	byLink map[[2]ad.ID]map[uint64]struct{}
	stats  Stats
}

// refEntry is one entry and the stamp of its last use: the Install,
// Lookup or Refresh that last touched it. Under capped state the smallest
// stamp is the least recently used entry.
type refEntry struct {
	Entry
	used uint64
}

// NewReference builds an empty reference table. Unknown kinds panic,
// matching NewTable.
func NewReference(cfg Config) *Reference {
	cfg, err := cfg.Normalize()
	if err != nil {
		panic(err)
	}
	return &Reference{
		cfg:     cfg,
		entries: make(map[uint64]*refEntry),
		byLink:  make(map[[2]ad.ID]map[uint64]struct{}),
	}
}

// use stamps e as the most recently used entry.
func (t *Reference) use(e *refEntry) {
	t.clock++
	e.used = t.clock
}

// live finds h's entry, dropping it and counting an expiration if its
// deadline has passed.
func (t *Reference) live(now sim.Time, h uint64) (*refEntry, bool) {
	e, ok := t.entries[h]
	if ok && e.expired(now) {
		t.drop(h)
		t.stats.Expirations++
		return nil, false
	}
	return e, ok
}

// drop removes h and its index edges, reporting whether it was present.
func (t *Reference) drop(h uint64) bool {
	e, ok := t.entries[h]
	if ok {
		unindexRoute(t.byLink, h, e.Route)
		delete(t.entries, h)
	}
	return ok
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
	t.drop(h)
	e := &refEntry{Entry: Entry{
		Route: route, Idx: idx, Req: req,
		Installed: now, Deadline: deadlineFor(t.cfg, now, ttl),
	}}
	t.use(e)
	t.entries[h] = e
	indexRoute(t.byLink, h, route)
	if t.cfg.Kind == Capped && len(t.entries) > t.cfg.Capacity {
		t.evict()
	}
	t.stats.Peak = max(t.stats.Peak, len(t.entries))
}

// evict drops the least recently used entry, the one with the smallest
// stamp, scanning the whole table.
func (t *Reference) evict() {
	var victim *refEntry
	var vh uint64
	for h, e := range t.entries {
		if victim == nil || e.used < victim.used {
			victim, vh = e, h
		}
	}
	t.drop(vh)
	t.stats.Evictions++
}

// Lookup returns the live entry for h, counting a hit or miss and
// touching recency; expired entries drop and count as miss + expiration.
func (t *Reference) Lookup(now sim.Time, h uint64) (Entry, bool) {
	e, ok := t.live(now, h)
	if !ok {
		t.stats.Misses++
		return Entry{}, false
	}
	t.use(e)
	t.stats.Hits++
	return e.Entry, true
}

// Peek returns the live entry for h without touching recency or the
// hit/miss counters; expired entries still drop.
func (t *Reference) Peek(now sim.Time, h uint64) (Entry, bool) {
	e, ok := t.live(now, h)
	if !ok {
		return Entry{}, false
	}
	return e.Entry, true
}

// Refresh extends h's soft-state deadline and touches recency.
func (t *Reference) Refresh(now sim.Time, h uint64, ttl sim.Time) bool {
	e, ok := t.live(now, h)
	if !ok {
		return false
	}
	t.use(e)
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
	for h, e := range t.entries {
		if e.expired(now) {
			due = append(due, h)
		}
	}
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
	return sortedKeys(t.entries)
}

// HandlesCrossing returns, in ascending order, the handles whose routes
// traverse the a-b adjacency (either direction).
func (t *Reference) HandlesCrossing(a, b ad.ID) []uint64 {
	return sortedKeys(t.byLink[linkOf(a, b)])
}

// Len returns the current entry count.
func (t *Reference) Len() int { return len(t.entries) }

// Stats returns the table's counters with Resident filled in.
func (t *Reference) Stats() Stats {
	s := t.stats
	s.Resident = len(t.entries)
	return s
}

// Package pgstate manages policy-gateway handle state — the per-route
// entries installed by ORWG setup packets that let data packets carry a
// short handle instead of a full source route (paper §5.4.1). How PGs hold
// this state under churn is the explicit open issue of §6 ("policy gateway
// state management"): handles installed by sources that crash, move, or
// simply stop sending would accumulate forever under the seed
// implementation's hard state.
//
// The package offers three pluggable lifecycle disciplines for one PG's
// handle table:
//
//   - Hard: entries live until an explicit teardown (the seed behaviour).
//     Zero control overhead, unbounded state: abandoned flows leak.
//   - Soft: entries carry a TTL and expire unless the source refreshes
//     them (wire.Refresh keepalives). State is bounded by the live flow
//     set at the cost of refresh traffic.
//   - Capped: the table holds at most Capacity entries, evicting the
//     least recently used. State is bounded by construction; an evicted
//     live flow drops packets (NAK-on-miss) until the source re-installs.
//
// Table is built for millions of handles: records pack into arena slabs
// with free-list reuse (no per-install allocation in steady state, a capped
// eviction included), one map finds a handle's record under every
// discipline, expiry runs off a hierarchical timer wheel whose sweep cost
// is proportional to the handles actually due rather than the table size,
// a capped table's recency list runs through the records' own links, and a
// link index maps each adjacency to the handles whose routes cross it. One
// mutex guards the whole table. Every caller drives a table from one
// goroutine at a time — the simulator's PGs run on its single event loop,
// and the serving-layer data plane holds its own lock around every table
// call — so partitioning the handle space would buy no parallelism.
//
// Reference is the retained scan-based implementation with the same
// observable behaviour; the differential harness in differential_test.go
// drives both in lockstep to prove Table equivalent. Experiment E24 and
// BenchmarkPGStateMillion measure the difference the structure makes at
// scale.
package pgstate

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/ad"
	"repro/internal/policy"
	"repro/internal/sim"
)

// Kind selects the handle-lifecycle discipline.
type Kind string

// The three disciplines of §6.
const (
	// Hard state lives until explicit teardown.
	Hard Kind = "hard"
	// Soft state expires TTL after its last install/refresh.
	Soft Kind = "soft"
	// Capped state holds at most Capacity entries, evicting the LRU.
	Capped Kind = "capped"
)

// Valid reports whether k names a known discipline ("" counts as Hard).
func (k Kind) Valid() bool {
	switch k {
	case "", Hard, Soft, Capped:
		return true
	}
	return false
}

// Default lifecycle parameters.
const (
	// DefaultTTL is the soft-state lifetime without a refresh.
	DefaultTTL = 30 * sim.Second
	// DefaultCapacity bounds a capped table when none is configured.
	DefaultCapacity = 64
)

// Config parameterizes a Table. The zero value is hard state.
type Config struct {
	// Kind is the lifecycle discipline (default Hard).
	Kind Kind
	// TTL is the soft-state entry lifetime without refresh
	// (default DefaultTTL; ignored unless Kind == Soft).
	TTL sim.Time
	// Capacity bounds a capped table's entry count
	// (default DefaultCapacity; ignored unless Kind == Capped).
	Capacity int
}

// Normalize fills defaults and returns an error for unknown kinds.
func (c Config) Normalize() (Config, error) {
	if !c.Kind.Valid() {
		return c, fmt.Errorf("pgstate: unknown kind %q", c.Kind)
	}
	if c.Kind == "" {
		c.Kind = Hard
	}
	if c.Kind == Soft && c.TTL <= 0 {
		c.TTL = DefaultTTL
	}
	if c.Kind == Capped && c.Capacity <= 0 {
		c.Capacity = DefaultCapacity
	}
	return c, nil
}

// Entry is one cached policy-route handle at a PG: the full route, this
// AD's position on it, and the traffic class it was set up for.
type Entry struct {
	Route ad.Path
	// Idx is this AD's position on Route (0 = source PG).
	Idx int
	Req policy.Request
	// Installed is the setup time; Deadline is the soft-state expiry
	// (zero = never expires).
	Installed, Deadline sim.Time
}

// expired reports whether the entry's deadline has passed.
func (e *Entry) expired(now sim.Time) bool {
	return e.Deadline != 0 && e.Deadline < now
}

// Stats counts one table's lifecycle events. Resident and Peak track live
// entries; the rest are cumulative.
type Stats struct {
	// Installs counts entries accepted; Hits and Misses count data-plane
	// lookups (an expired entry found by lookup counts as a miss).
	Installs, Hits, Misses uint64
	// Evictions counts capacity drops (capped); Expirations counts TTL
	// drops (soft); Refreshes counts accepted deadline extensions.
	Evictions, Expirations, Refreshes uint64
	// Resident is the current entry count; Peak is its maximum so far.
	Resident, Peak int
}

// Add accumulates o into s, summing Resident and Peak (aggregating across
// PGs: the Peak sum upper-bounds simultaneous state; per-PG peaks stay
// exact in each table).
func (s *Stats) Add(o Stats) {
	s.Installs += o.Installs
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Expirations += o.Expirations
	s.Refreshes += o.Refreshes
	s.Resident += o.Resident
	s.Peak += o.Peak
}

// SweepCost accumulates the work ExpireDue has done: Slots counts timer-
// wheel slot walks (bounded per sweep by levels x slots, independent of
// table size), Entries counts records popped from wheel slots or the
// overflow heap (proportional to due handles plus bounded cascade
// traffic). Experiment E24 compares it against the reference
// implementation's full scans. It is diagnostic state, deliberately not
// part of Stats: the two implementations must agree on Stats exactly.
type SweepCost struct {
	Slots, Entries uint64
}

// Store is the handle-table API, implemented by both the wheel-and-arena
// Table and the scan-based Reference. The differential test harness drives
// the two in lockstep through this interface; observable behaviour —
// returned entries, booleans, handle sets, expiry sets, and Stats — must
// be identical.
type Store interface {
	Kind() Kind
	TTL() sim.Time
	Install(now sim.Time, h uint64, route ad.Path, idx int, req policy.Request, ttl sim.Time)
	Lookup(now sim.Time, h uint64) (Entry, bool)
	Peek(now sim.Time, h uint64) (Entry, bool)
	Refresh(now sim.Time, h uint64, ttl sim.Time) bool
	Remove(h uint64) bool
	ExpireDue(now sim.Time) []uint64
	Handles() []uint64
	HandlesCrossing(a, b ad.ID) []uint64
	Len() int
	Stats() Stats
}

var (
	_ Store = (*Table)(nil)
	_ Store = (*Reference)(nil)
)

// sortedKeys returns m's handles in ascending order.
func sortedKeys[V any](m map[uint64]V) []uint64 {
	out := make([]uint64, 0, len(m))
	for h := range m {
		out = append(out, h)
	}
	slices.Sort(out)
	return out
}

// linkOf orders an adjacency low-high so both directions index together.
func linkOf(a, b ad.ID) [2]ad.ID {
	if a > b {
		a, b = b, a
	}
	return [2]ad.ID{a, b}
}

// indexRoute adds h's link-dependency edges to byLink, the Reference's
// link index.
func indexRoute(byLink map[[2]ad.ID]map[uint64]struct{}, h uint64, route ad.Path) {
	for i := 1; i < len(route); i++ {
		l := linkOf(route[i-1], route[i])
		m := byLink[l]
		if m == nil {
			m = make(map[uint64]struct{})
			byLink[l] = m
		}
		m[h] = struct{}{}
	}
}

// unindexRoute removes h's link-dependency edges from byLink, the
// Reference's link index.
func unindexRoute(byLink map[[2]ad.ID]map[uint64]struct{}, h uint64, route ad.Path) {
	for i := 1; i < len(route); i++ {
		l := linkOf(route[i-1], route[i])
		if m := byLink[l]; m != nil {
			delete(m, h)
			if len(m) == 0 {
				delete(byLink, l)
			}
		}
	}
}

// linkRef is one edge of the table's link index: an arena record, by index,
// and the gen it had when its route was indexed. The ref is live while the
// record's gen is still that one: a release or an overwrite bumps gen, so
// a ref dies without being found. (A ref could come back to life only if
// its record's 32-bit gen wrapped around while the ref sat in a bucket that
// never compacted.)
type linkRef struct {
	idx int32
	gen uint32
}

// linkBucket holds the refs of the records whose routes cross one link.
// Indexing appends; unindexing only counts the ref dead, and a bucket more
// than half dead is compacted in place, so len(refs) <= 2*live after every
// operation. A route that crosses a link twice holds two refs there, and
// drops both.
type linkBucket struct {
	refs []linkRef
	live int
}

// Table is one PG's handle table under a lifecycle discipline. One mutex
// guards all of it, so it is safe for concurrent use.
type Table struct {
	cfg      Config
	mu       sync.Mutex
	byHandle map[uint64]int32
	arena    arena
	wheel    *wheel // soft tables
	// head and tail are the most and least recently used records of a
	// capped table's recency list, chained through the records' links
	// (-1 when empty).
	head, tail int32
	byLink     map[[2]ad.ID]*linkBucket
	st         Stats
}

// NewTable builds an empty table. Unknown kinds panic: the Config is
// program state, not input (validate input with Config.Normalize).
func NewTable(cfg Config) *Table {
	cfg, err := cfg.Normalize()
	if err != nil {
		panic(err)
	}
	t := &Table{
		cfg:      cfg,
		byHandle: make(map[uint64]int32),
		head:     -1,
		tail:     -1,
		byLink:   make(map[[2]ad.ID]*linkBucket),
	}
	if cfg.Kind == Soft {
		t.wheel = newWheel()
	}
	return t
}

// indexLinks files the record at idx, whose route is route, under every
// link the route crosses.
func (t *Table) indexLinks(idx int32, route ad.Path) {
	gen := t.arena.at(idx).gen
	for i := 1; i < len(route); i++ {
		l := linkOf(route[i-1], route[i])
		b := t.byLink[l]
		if b == nil {
			b = &linkBucket{}
			t.byLink[l] = b
		}
		b.refs = append(b.refs, linkRef{idx, gen})
		b.live++
	}
}

// unindexLinks counts dead the refs indexLinks filed for route, whose
// record's gen has already moved on. An emptied bucket stays in the map
// with its capacity: a table's links are the graph's, a bounded set, and
// flows come and go over the same links.
func (t *Table) unindexLinks(route ad.Path) {
	for i := 1; i < len(route); i++ {
		b := t.byLink[linkOf(route[i-1], route[i])]
		b.live--
		if b.live == 0 {
			b.refs = b.refs[:0]
		} else if len(b.refs) > 2*b.live {
			kept := b.refs[:0]
			for _, r := range b.refs {
				if t.arena.at(r.idx).gen == r.gen {
					kept = append(kept, r)
				}
			}
			b.refs = kept
		}
	}
}

// touch makes record i the most recently used under capped state; the
// other disciplines keep no recency.
func (t *Table) touch(i int32) {
	if t.cfg.Kind == Capped && t.head != i {
		t.arena.unlink(i, &t.head, &t.tail)
		t.arena.pushFront(i, &t.head, &t.tail)
	}
}

// Kind returns the table's lifecycle discipline.
func (t *Table) Kind() Kind { return t.cfg.Kind }

// TTL returns the soft-state lifetime (zero for other kinds).
func (t *Table) TTL() sim.Time {
	if t.cfg.Kind != Soft {
		return 0
	}
	return t.cfg.TTL
}

// deadlineFor computes the expiry for an install/refresh at now. ttl
// overrides the configured TTL when positive (the Setup/Refresh packets
// carry the source's requested lifetime).
func deadlineFor(cfg Config, now, ttl sim.Time) sim.Time {
	if cfg.Kind != Soft {
		return 0
	}
	if ttl <= 0 {
		ttl = cfg.TTL
	}
	return now + ttl
}

// dropLocked removes the record for h at idx: cancel its timer or take it
// off the recency list, release its arena slot (which kills its link refs),
// unindex its links, and forget the handle. Caller holds t.mu.
func (t *Table) dropLocked(h uint64, idx int32) {
	route := t.arena.at(idx).entry.Route
	if t.wheel != nil {
		t.wheel.cancel(&t.arena, idx)
	}
	if t.cfg.Kind == Capped {
		t.arena.unlink(idx, &t.head, &t.tail)
	}
	delete(t.byHandle, h)
	t.arena.release(idx)
	t.unindexLinks(route)
	t.st.Resident--
}

// liveLocked finds h's record, dropping it and counting an expiration if
// its deadline has passed. Caller holds t.mu.
func (t *Table) liveLocked(now sim.Time, h uint64) (int32, bool) {
	i, ok := t.byHandle[h]
	if ok && t.arena.at(i).entry.expired(now) {
		t.dropLocked(h, i)
		t.st.Expirations++
		return 0, false
	}
	return i, ok
}

// Install adds (or overwrites) the entry for handle h. ttl is the
// source-requested soft lifetime (<= 0 = the table default). Under Capped
// an install that takes the table past Capacity evicts the least recently
// used entry.
func (t *Table) Install(now sim.Time, h uint64, route ad.Path, idx int, req policy.Request, ttl sim.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.st.Installs++
	e := Entry{
		Route: route, Idx: idx, Req: req,
		Installed: now, Deadline: deadlineFor(t.cfg, now, ttl),
	}
	if i, ok := t.byHandle[h]; ok {
		// Overwrite in place: re-index the route, re-arm the timer, touch
		// recency. Bumping gen kills the old route's link refs.
		r := t.arena.at(i)
		if t.wheel != nil {
			t.wheel.cancel(&t.arena, i)
		}
		old := r.entry.Route
		r.gen++
		t.unindexLinks(old)
		r.entry = e
		t.indexLinks(i, route)
		if t.wheel != nil && e.Deadline != 0 {
			t.wheel.schedule(&t.arena, i, e.Deadline)
		}
		t.touch(i)
		return
	}
	i := t.arena.alloc()
	r := t.arena.at(i)
	r.entry = e
	r.handle = h
	t.indexLinks(i, route)
	if t.wheel != nil && e.Deadline != 0 {
		t.wheel.schedule(&t.arena, i, e.Deadline)
	}
	// The handle map comes last: the other order measured 10-20% slower
	// on BenchmarkInstallHard and BenchmarkInstallSoft.
	t.byHandle[h] = i
	t.st.Resident++
	if t.cfg.Kind == Capped {
		t.arena.pushFront(i, &t.head, &t.tail)
		if t.st.Resident > t.cfg.Capacity {
			// Evict before Peak is taken: a capped table's Peak never
			// passes Capacity.
			t.st.Evictions++
			t.dropLocked(t.arena.at(t.tail).handle, t.tail)
		}
	}
	t.st.Peak = max(t.st.Peak, t.st.Resident)
}

// Lookup is the data-plane path: it returns the live entry for h, counts a
// hit or miss, and touches recency. An expired entry is dropped and counts
// as both an expiration and a miss — exactly the packet-drop a soft-state
// PG inflicts on a flow whose source stopped refreshing.
func (t *Table) Lookup(now sim.Time, h uint64) (Entry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if i, ok := t.liveLocked(now, h); ok {
		t.touch(i)
		t.st.Hits++
		return t.arena.at(i).entry, true
	}
	t.st.Misses++
	return Entry{}, false
}

// Peek is the control-plane path: like Lookup it drops expired entries,
// but it touches neither recency nor the hit/miss counters (replies and
// teardowns must not keep a dying entry warm).
func (t *Table) Peek(now sim.Time, h uint64) (Entry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	i, ok := t.liveLocked(now, h)
	if !ok {
		return Entry{}, false
	}
	return t.arena.at(i).entry, true
}

// Refresh extends h's soft-state deadline (ttl <= 0 = table default) and
// touches recency, reporting whether the entry was still present. For hard
// and capped tables it is a recency touch only.
func (t *Table) Refresh(now sim.Time, h uint64, ttl sim.Time) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	i, ok := t.liveLocked(now, h)
	if !ok {
		return false
	}
	t.touch(i)
	r := t.arena.at(i)
	r.entry.Deadline = deadlineFor(t.cfg, now, ttl)
	if t.wheel != nil {
		// Reschedule: the old slot must no longer fire for this record.
		t.wheel.cancel(&t.arena, i)
		if r.entry.Deadline != 0 {
			t.wheel.schedule(&t.arena, i, r.entry.Deadline)
		}
	}
	t.st.Refreshes++
	return true
}

// Remove deletes h (explicit teardown), reporting whether it was present.
func (t *Table) Remove(h uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	i, ok := t.byHandle[h]
	if !ok {
		return false
	}
	t.dropLocked(h, i)
	return true
}

// ExpireDue drops every entry whose deadline has passed and returns their
// handles in ascending order (deterministic for simulation replay — the
// ordering is independent of install order and wheel layout). The wheel
// advances to now, so the cost is proportional to the due handles plus a
// bounded slot walk, never to the table size.
func (t *Table) ExpireDue(now sim.Time) []uint64 {
	if t.wheel == nil {
		return nil // hard and capped entries carry no deadline
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []uint64
	for _, i := range t.wheel.advance(&t.arena, now, nil) {
		r := t.arena.at(i)
		out = append(out, r.handle)
		t.dropLocked(r.handle, i)
		t.st.Expirations++
	}
	slices.Sort(out)
	return out
}

// Handles returns the live handles in ascending order. Expired-but-unswept
// entries are included; call ExpireDue first for a live-only view.
func (t *Table) Handles() []uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return sortedKeys(t.byHandle)
}

// HandlesCrossing returns, in ascending order, the handles whose routes
// traverse the a-b adjacency (either direction), resolved through the
// link index — link-failure invalidation cost scales with the affected
// flows, not the table size. Expired-but-unswept entries are included,
// matching Handles.
func (t *Table) HandlesCrossing(a, b ad.ID) []uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []uint64
	if bk := t.byLink[linkOf(a, b)]; bk != nil {
		for _, ref := range bk.refs {
			if r := t.arena.at(ref.idx); r.gen == ref.gen {
				out = append(out, r.handle)
			}
		}
	}
	// A route that crosses the link twice is listed twice.
	slices.Sort(out)
	return slices.Compact(out)
}

// Len returns the current entry count.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.st.Resident
}

// Stats returns the table's counters.
func (t *Table) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.st
}

// SweepCost returns the cumulative ExpireDue work. Zero for hard and
// capped tables, which have no wheel.
func (t *Table) SweepCost() SweepCost {
	if t.wheel == nil {
		return SweepCost{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return SweepCost{Slots: t.wheel.slotsVisited, Entries: t.wheel.entriesVisited}
}

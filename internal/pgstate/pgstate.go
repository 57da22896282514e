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
// Table is built for millions of concurrent handles: records pack into
// arena slabs with free-list reuse (no per-install allocation in steady
// state), the handle space splits across power-of-two hash shards under
// per-shard mutexes (safe for concurrent use — the serving-layer data
// plane and the simulator can drive one table from multiple goroutines),
// expiry runs off a per-shard hierarchical timer wheel whose sweep cost is
// proportional to the handles actually due rather than the table size, and
// the byLink reverse index shards alongside the entries. Stats are kept
// per shard and merged on read, so metric cardinality stays constant no
// matter how many shards a table has.
//
// Reference is the retained scan-based implementation with the same
// observable behaviour; the differential harness in differential_test.go
// drives both in lockstep to prove the sharded table equivalent.
// Experiment E24 and BenchmarkPGStateMillion measure the difference the
// structure makes at scale.
package pgstate

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/ad"
	"repro/internal/cache"
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
	// DefaultShards is the hash-shard count when none is configured.
	DefaultShards = 16
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
	// Shards is the hash-shard count, rounded up to a power of two
	// (default DefaultShards). Capped tables always use one shard: the
	// global LRU eviction order is observable semantics that independent
	// per-shard recency lists would change — and a capped table is bounded
	// at Capacity entries by construction, so it is never the
	// million-handle case sharding exists for.
	Shards int
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
	switch {
	case c.Kind == Capped:
		c.Shards = 1
	case c.Shards <= 0:
		c.Shards = DefaultShards
	default:
		n := 1
		for n < c.Shards {
			n <<= 1
		}
		c.Shards = n
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
// entries; the rest are cumulative. A sharded table merges its per-shard
// counters into this one struct on read, so the exported cardinality does
// not grow with the shard count.
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
// wheel slot walks (bounded per sweep by levels x slots x shards,
// independent of table size), Entries counts records popped from wheel
// slots or the overflow heap (proportional to due handles plus bounded
// cascade traffic). Experiment E24 compares it against the reference
// implementation's full scans. It is diagnostic state, deliberately not
// part of Stats: the two implementations must agree on Stats exactly.
type SweepCost struct {
	Slots, Entries uint64
}

// Store is the handle-table API, implemented by both the sharded Table and
// the scan-based Reference. The differential test harness drives the two
// in lockstep through this interface; observable behaviour — returned
// entries, booleans, handle sets, expiry sets, and Stats — must be
// identical.
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

// linkRef is one edge of a shard's link index: an arena record, by index,
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

// indexLinks files the record at idx, whose route is route, under every
// link the route crosses.
func (s *shard) indexLinks(idx int32, route ad.Path) {
	gen := s.arena.at(idx).gen
	for i := 1; i < len(route); i++ {
		l := linkOf(route[i-1], route[i])
		b := s.byLink[l]
		if b == nil {
			b = &linkBucket{}
			s.byLink[l] = b
		}
		b.refs = append(b.refs, linkRef{idx, gen})
		b.live++
	}
}

// unindexLinks counts dead the refs indexLinks filed for route, whose
// record's gen has already moved on. An emptied bucket stays in the map
// with its capacity: a shard's links are the graph's, a bounded set, and
// flows come and go over the same links.
func (s *shard) unindexLinks(route ad.Path) {
	for i := 1; i < len(route); i++ {
		b := s.byLink[linkOf(route[i-1], route[i])]
		b.live--
		if b.live == 0 {
			b.refs = b.refs[:0]
		} else if len(b.refs) > 2*b.live {
			kept := b.refs[:0]
			for _, r := range b.refs {
				if s.arena.at(r.idx).gen == r.gen {
					kept = append(kept, r)
				}
			}
			b.refs = kept
		}
	}
}

// shard is one hash partition of the handle space: its own mutex, handle
// index (a plain map for hard/soft, the recency LRU for capped), arena,
// timer wheel (soft only), slice of the link index, and counters.
// Everything a shard touches is its own, so shards never take two locks.
type shard struct {
	mu       sync.Mutex
	byHandle map[uint64]int32          // hard and soft tables
	lru      *cache.LRU[uint64, int32] // capped tables
	arena    arena
	wheel    *wheel // soft tables
	byLink   map[[2]ad.ID]*linkBucket
	st       Stats // cumulative counters only; Resident/Peak live on Table
}

// lookupIdx finds h's record index. touch promotes recency under capped.
func (s *shard) lookupIdx(h uint64, touch bool) (int32, bool) {
	if s.lru != nil {
		if touch {
			return s.lru.Get(h)
		}
		return s.lru.Peek(h)
	}
	idx, ok := s.byHandle[h]
	return idx, ok
}

// deleteIdx removes h from the handle index.
func (s *shard) deleteIdx(h uint64) {
	if s.lru != nil {
		s.lru.Delete(h)
		return
	}
	delete(s.byHandle, h)
}

// Table is one PG's handle table under a lifecycle discipline, sharded for
// concurrent use: the data plane and the control plane (ORWG) can drive it
// from different goroutines, and operations on handles in different shards
// never contend.
type Table struct {
	cfg    Config
	shards []*shard
	mask   uint64

	// resident and peak are table-global so Stats reports the same
	// whole-table high-water mark the reference tracks; they are atomics
	// because installs and drops in different shards race.
	resident atomic.Int64
	peak     atomic.Int64
}

// NewTable builds an empty table. Unknown kinds panic: the Config is
// program state, not input (validate input with Config.Normalize).
func NewTable(cfg Config) *Table {
	cfg, err := cfg.Normalize()
	if err != nil {
		panic(err)
	}
	t := &Table{
		cfg:    cfg,
		shards: make([]*shard, cfg.Shards),
		mask:   uint64(cfg.Shards - 1),
	}
	for i := range t.shards {
		sh := &shard{byLink: make(map[[2]ad.ID]*linkBucket)}
		switch cfg.Kind {
		case Capped:
			sh.lru = cache.NewLRU[uint64, int32](cfg.Capacity)
			sh.lru.OnEvict = func(_ uint64, idx int32) {
				sh.st.Evictions++
				route := sh.arena.at(idx).entry.Route
				sh.arena.release(idx)
				sh.unindexLinks(route)
				t.resident.Add(-1)
			}
		case Soft:
			sh.byHandle = make(map[uint64]int32)
			sh.wheel = newWheel()
		default:
			sh.byHandle = make(map[uint64]int32)
		}
		t.shards[i] = sh
	}
	return t
}

// shardOf routes handle h to its shard. Handles are sequential in
// practice (source<<32|seq), so the hash mixes before masking.
func (t *Table) shardOf(h uint64) *shard {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return t.shards[h&t.mask]
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

// dropLocked removes the record for h at idx: cancel its timer, release
// its arena slot (which kills its link refs), unindex its links, and forget
// the handle. Caller holds sh.mu.
func (t *Table) dropLocked(sh *shard, h uint64, idx int32) {
	route := sh.arena.at(idx).entry.Route
	if sh.wheel != nil {
		sh.wheel.cancel(&sh.arena, idx)
	}
	sh.deleteIdx(h)
	sh.arena.release(idx)
	sh.unindexLinks(route)
	t.resident.Add(-1)
}

// Install adds (or overwrites) the entry for handle h. ttl is the
// source-requested soft lifetime (<= 0 = the table default). Under Capped
// the LRU entry beyond capacity is evicted.
func (t *Table) Install(now sim.Time, h uint64, route ad.Path, idx int, req policy.Request, ttl sim.Time) {
	sh := t.shardOf(h)
	sh.mu.Lock()
	sh.st.Installs++
	e := Entry{
		Route: route, Idx: idx, Req: req,
		Installed: now, Deadline: deadlineFor(t.cfg, now, ttl),
	}
	if i, ok := sh.lookupIdx(h, false); ok {
		// Overwrite in place: re-index the route, re-arm the timer, touch
		// recency (the reference's Put promotes on overwrite). Bumping gen
		// kills the old route's link refs.
		r := sh.arena.at(i)
		if sh.wheel != nil {
			sh.wheel.cancel(&sh.arena, i)
		}
		old := r.entry.Route
		r.gen++
		sh.unindexLinks(old)
		r.entry = e
		sh.indexLinks(i, route)
		if sh.wheel != nil && e.Deadline != 0 {
			sh.wheel.schedule(&sh.arena, i, e.Deadline)
		}
		if sh.lru != nil {
			sh.lru.Get(h)
		}
		sh.mu.Unlock()
		return
	}
	i := sh.arena.alloc()
	r := sh.arena.at(i)
	r.entry = e
	r.handle = h
	sh.indexLinks(i, route)
	if sh.wheel != nil && e.Deadline != 0 {
		sh.wheel.schedule(&sh.arena, i, e.Deadline)
	}
	t.resident.Add(1)
	if sh.lru != nil {
		sh.lru.Put(h, i) // may evict the LRU victim via OnEvict
	} else {
		sh.byHandle[h] = i
	}
	n := t.resident.Load()
	for {
		p := t.peak.Load()
		if n <= p || t.peak.CompareAndSwap(p, n) {
			break
		}
	}
	sh.mu.Unlock()
}

// Lookup is the data-plane path: it returns the live entry for h, counts a
// hit or miss, and touches recency. An expired entry is dropped and counts
// as both an expiration and a miss — exactly the packet-drop a soft-state
// PG inflicts on a flow whose source stopped refreshing.
func (t *Table) Lookup(now sim.Time, h uint64) (Entry, bool) {
	sh := t.shardOf(h)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if i, ok := sh.lookupIdx(h, true); ok {
		r := sh.arena.at(i)
		if !r.entry.expired(now) {
			sh.st.Hits++
			return r.entry, true
		}
		t.dropLocked(sh, h, i)
		sh.st.Expirations++
	}
	sh.st.Misses++
	return Entry{}, false
}

// Peek is the control-plane path: like Lookup it drops expired entries,
// but it touches neither recency nor the hit/miss counters (replies and
// teardowns must not keep a dying entry warm).
func (t *Table) Peek(now sim.Time, h uint64) (Entry, bool) {
	sh := t.shardOf(h)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	i, ok := sh.lookupIdx(h, false)
	if !ok {
		return Entry{}, false
	}
	r := sh.arena.at(i)
	if r.entry.expired(now) {
		t.dropLocked(sh, h, i)
		sh.st.Expirations++
		return Entry{}, false
	}
	return r.entry, true
}

// Refresh extends h's soft-state deadline (ttl <= 0 = table default) and
// touches recency, reporting whether the entry was still present. For hard
// and capped tables it is a recency touch only.
func (t *Table) Refresh(now sim.Time, h uint64, ttl sim.Time) bool {
	sh := t.shardOf(h)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	i, ok := sh.lookupIdx(h, true)
	if !ok {
		return false
	}
	r := sh.arena.at(i)
	if r.entry.expired(now) {
		t.dropLocked(sh, h, i)
		sh.st.Expirations++
		return false
	}
	r.entry.Deadline = deadlineFor(t.cfg, now, ttl)
	if sh.wheel != nil {
		// Reschedule: the old slot must no longer fire for this record.
		sh.wheel.cancel(&sh.arena, i)
		if r.entry.Deadline != 0 {
			sh.wheel.schedule(&sh.arena, i, r.entry.Deadline)
		}
	}
	sh.st.Refreshes++
	return true
}

// Remove deletes h (explicit teardown), reporting whether it was present.
func (t *Table) Remove(h uint64) bool {
	sh := t.shardOf(h)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	i, ok := sh.lookupIdx(h, false)
	if !ok {
		return false
	}
	t.dropLocked(sh, h, i)
	return true
}

// ExpireDue drops every entry whose deadline has passed and returns their
// handles in ascending order (deterministic for simulation replay — the
// ordering is independent of shard count and wheel layout). Each shard's
// wheel advances to now, so the cost is proportional to the due handles
// plus a bounded slot walk, never to the table size.
func (t *Table) ExpireDue(now sim.Time) []uint64 {
	var out []uint64
	var scratch []int32
	for _, sh := range t.shards {
		if sh.wheel == nil {
			continue // hard and capped entries carry no deadline
		}
		sh.mu.Lock()
		scratch = sh.wheel.advance(&sh.arena, now, scratch[:0])
		for _, i := range scratch {
			r := sh.arena.at(i)
			out = append(out, r.handle)
			t.dropLocked(sh, r.handle, i)
			sh.st.Expirations++
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Handles returns the live handles in ascending order. Expired-but-unswept
// entries are included; call ExpireDue first for a live-only view.
func (t *Table) Handles() []uint64 {
	out := make([]uint64, 0, t.Len())
	for _, sh := range t.shards {
		sh.mu.Lock()
		if sh.lru != nil {
			for _, h := range sh.lru.Keys() {
				out = append(out, h)
			}
		} else {
			for h := range sh.byHandle {
				out = append(out, h)
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HandlesCrossing returns, in ascending order, the handles whose routes
// traverse the a-b adjacency (either direction), resolved through the
// sharded link index — link-failure invalidation cost scales with the
// affected flows, not the table size. Expired-but-unswept entries are
// included, matching Handles.
func (t *Table) HandlesCrossing(a, b ad.ID) []uint64 {
	l := linkOf(a, b)
	var out []uint64
	for _, sh := range t.shards {
		sh.mu.Lock()
		if b := sh.byLink[l]; b != nil {
			for _, ref := range b.refs {
				if r := sh.arena.at(ref.idx); r.gen == ref.gen {
					out = append(out, r.handle)
				}
			}
		}
		sh.mu.Unlock()
	}
	// A route that crosses the link twice is listed twice.
	slices.Sort(out)
	return slices.Compact(out)
}

// Len returns the current entry count.
func (t *Table) Len() int { return int(t.resident.Load()) }

// Stats returns the table's counters: per-shard counts merged on read
// (one Stats per table regardless of shard count), with Resident and the
// whole-table Peak filled in.
func (t *Table) Stats() Stats {
	var s Stats
	for _, sh := range t.shards {
		sh.mu.Lock()
		st := sh.st
		sh.mu.Unlock()
		s.Installs += st.Installs
		s.Hits += st.Hits
		s.Misses += st.Misses
		s.Evictions += st.Evictions
		s.Expirations += st.Expirations
		s.Refreshes += st.Refreshes
	}
	s.Resident = int(t.resident.Load())
	s.Peak = int(t.peak.Load())
	return s
}

// SweepCost returns the cumulative ExpireDue work across all shards. Zero
// for hard and capped tables, which have no wheels.
func (t *Table) SweepCost() SweepCost {
	var c SweepCost
	for _, sh := range t.shards {
		if sh.wheel == nil {
			continue
		}
		sh.mu.Lock()
		c.Slots += sh.wheel.slotsVisited
		c.Entries += sh.wheel.entriesVisited
		sh.mu.Unlock()
	}
	return c
}

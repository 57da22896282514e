package routeserver

import (
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/ad"
	"repro/internal/policy"
	"repro/internal/synthesis"
)

// The table owns the cache's entries: it holds the answers, the replacement
// order and the reverse dependency index, in the arena idiom of
// internal/pgstate — an entry sits in one ring slot for its whole life and
// everything that refers to it does so by slot number.
//
// The table is also the only thing that says where a key is: resident (in
// the index), pending (in pending: one query, its leader, is computing it
// and the others wait on its call), or absent. A query that get misses
// settles which under mu (claim); the leader's insert puts the answer and
// withdraws the claim in one critical section, so a computed key is never in
// neither place, and nobody else removes a claim — a mutation drops entries
// and leaves pending alone.
//
// Only get reads without a lock. It loads the published index and probes an
// open-addressed array of atomic entry pointers; every other field of the
// table belongs to writers, who hold mu. An entry is immutable once
// published apart from its two flags, so a reader holding the pointer holds
// the answer, and a hit linearizes at the load of its index slot: the entry
// was resident at that instant, and resident is current (package comment).
//
// dead exists because deletion tombstones the current index while a reader
// may still be probing one a rebuild has superseded, where the entry is
// still in place. Writers mark an entry dead after unpublishing it, and a
// reader that meets a dead entry starts over on the current index (get), so
// no lookup begun after a removal returns what was removed.
//
// Replacement is CLOCK: a hit sets the entry's reference bit, and only when
// it reads it clear, so a hot entry costs its readers no write; the hand
// clears bits as it passes and evicts the first entry it finds clear.

// entry is one cached answer with the dependency footprint that feeds the
// reverse index. (slot, gen) names it there: slot is its place in the ring,
// gen counts the slot's earlier tenants.
type entry struct {
	key   Key
	slot  int32
	gen   uint32
	path  ad.Path
	fp    synthesis.Footprint
	found bool
	dead  atomic.Bool // set once, by the writer that unpublished the entry
	ref   atomic.Bool // CLOCK reference bit
}

// tombstone marks an index slot whose entry was deleted: probes continue
// past it. Compared by identity, never by key.
var tombstone = new(entry)

// index is the lookup structure: open addressing, linear probing, at most
// three quarters full counting tombstones, so every probe ends at a nil. A
// slot goes nil → entry → tombstone → entry …, never back to nil, which is
// what lets a reader trust the nil that ends its probe.
//
// The header fills a 64-byte cache line of its own. Every hit loads it, and
// at its natural 32 bytes the allocator gives the other half of its line to
// another small object, one the serving path writes: each such write would
// take the line from every core's hits.
type index struct {
	slots []atomic.Pointer[entry]
	shift uint32 // 32 - log2(len(slots))
	_     [64 - 24 - 4]byte
}

const minIndex = 8

func newIndex(n int) *index {
	return &index{slots: make([]atomic.Pointer[entry], n), shift: uint32(32 - bits.TrailingZeros(uint(n)))}
}

// home is where k's probe starts: the multiply folds every bit of the hash
// into the high ones used here.
func (ix *index) home(h uint32) int { return int((h * 2654435769) >> ix.shift) }

// locate returns k's entry and its position, or nil and the position an
// insert of k fills: the first tombstone on k's probe path, else the nil
// that ends it. Caller holds mu.
func (ix *index) locate(k Key, h uint32) (int, *entry) {
	mask, at := len(ix.slots)-1, -1
	for i := ix.home(h); ; i = (i + 1) & mask {
		e := ix.slots[i].Load()
		if e != nil && e != tombstone {
			if e.key == k {
				return i, e
			}
			continue
		}
		if at < 0 {
			at = i
		}
		if e == nil {
			return at, nil
		}
	}
}

// ringSlot is one CLOCK position. gen is bumped every time the slot's
// tenant leaves, so a ref is live exactly when its gen is the slot's — an
// array read, no hash probe and no pointer to follow. A slot whose gen has
// reached maxGen is retired rather than reused, so gen never wraps and a
// dead ref can never come to name a later tenant.
type ringSlot struct {
	e   *entry
	gen uint32
}

const maxGen = math.MaxUint32

// ref is one reverse-index edge. It holds no pointer: a dead ref pins
// nothing, and the collector has nothing to follow through a bucket.
type ref struct {
	slot int32
	gen  uint32
}

// bucket is the set of entries depending on one link or term (or, for
// negs, the cached negative answers). Adding appends; removing only
// counts, leaving a dead ref behind, and a bucket more than half dead is
// compacted in place — so len(refs) <= 2*live after every operation.
type bucket struct {
	refs []ref
	live int
}

func (b *bucket) add(e *entry) {
	b.refs = append(b.refs, ref{e.slot, e.gen})
	b.live++
}

// drop accounts for one entry of b having left the ring and reports whether
// b is now empty.
func (b *bucket) drop(ring []ringSlot) bool {
	b.live--
	if b.live == 0 {
		b.refs = b.refs[:0]
		return true
	}
	if len(b.refs) > 2*b.live {
		kept := b.refs[:0]
		for _, r := range b.refs {
			if ring[r.slot].gen == r.gen {
				kept = append(kept, r)
			}
		}
		b.refs = kept
	}
	return false
}

// appendLive appends the slots of b's live refs. A nil bucket is empty.
func (b *bucket) appendLive(dst []int32, ring []ringSlot) []int32 {
	if b == nil {
		return dst
	}
	for _, r := range b.refs {
		if ring[r.slot].gen == r.gen {
			dst = append(dst, r.slot)
		}
	}
	return dst
}

func addRef[K comparable](m map[K]*bucket, k K, e *entry) {
	b := m[k]
	if b == nil {
		b = &bucket{}
		m[k] = b
	}
	b.add(e)
}

func dropRef[K comparable](m map[K]*bucket, k K, ring []ringSlot) {
	if m[k].drop(ring) {
		delete(m, k)
	}
}

// table is the route cache: the published index, the CLOCK ring with its
// LIFO free list, and the reverse dependency index over the resident
// entries — byLink/byTerm map each footprint element to the entries
// depending on it, and negs holds the cached negative ("no legal route")
// answers, which depend on the absence of routes rather than on any
// particular link or term. Everything but idx is read and written under mu.
type table struct {
	idx      atomic.Pointer[index]
	mu       sync.Mutex
	capacity int // entries; <= 0 = unbounded
	ring     []ringSlot
	free     []int32
	hand     int
	live     int // resident entries
	used     int // non-nil slots of the current index: live + tombstones
	byLink   map[[2]ad.ID]*bucket
	byTerm   map[policy.Key]*bucket
	negs     bucket
	pending  map[Key]*call // keys being computed; purge leaves it alone
}

// purge drops every resident entry. Caller holds mu (or owns t outright).
// The empty index is published before the old entries are marked dead, so a
// reader sent back by a dead entry finds the new one.
func (t *table) purge() {
	t.idx.Store(newIndex(minIndex))
	t.each(func(e *entry) { e.dead.Store(true) })
	t.ring, t.free, t.hand, t.live, t.used = nil, nil, 0, 0, 0
	t.byLink = make(map[[2]ad.ID]*bucket)
	t.byTerm = make(map[policy.Key]*bucket)
	t.negs = bucket{}
}

// get is the lock-free hit path: k's resident entry, or nil.
func (t *table) get(k Key, h uint32) *entry {
	for {
		e, stale := t.idx.Load().find(k, h)
		if stale {
			continue
		}
		if e != nil {
			e.touch()
		}
		return e
	}
}

// touch sets the CLOCK reference bit, writing only when it reads it clear.
func (e *entry) touch() {
	if !e.ref.Load() {
		e.ref.Store(true)
	}
}

// call is one pending computation: the leader sets res, then releases wg.
type call struct {
	wg  sync.WaitGroup
	res Result
}

// claim settles where k is for a query whose get missed. Resident (a leader
// finished in between): e, a hit. Pending: c, to wait on. Absent: k becomes
// pending and the caller leads — it must compute k and insert it, or
// withdraw the claim itself if the computation panics.
func (t *table) claim(k Key, h uint32) (e *entry, c *call, lead bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, e := t.idx.Load().locate(k, h); e != nil {
		e.touch()
		return e, nil, false
	}
	if c := t.pending[k]; c != nil {
		return nil, c, false
	}
	c = &call{}
	c.wg.Add(1)
	t.pending[k] = c
	return nil, c, true
}

// find is the lock-free probe. stale reports that it met k's entry marked
// dead: the writer that marked it had already unpublished it, so a probe of
// the index current now sees that writer's work.
func (ix *index) find(k Key, h uint32) (e *entry, stale bool) {
	mask := len(ix.slots) - 1
	for i := ix.home(h); ; i = (i + 1) & mask {
		e := ix.slots[i].Load()
		if e == nil {
			return nil, false
		}
		if e != tombstone && e.key == k {
			return e, e.dead.Load()
		}
	}
}

// put stores the answer for k, replacing any resident one, and reports
// whether an unrelated entry was evicted to make room. Caller holds mu.
func (t *table) put(k Key, h uint32, res Result, fp synthesis.Footprint) (evicted bool) {
	ix := t.idx.Load()
	if (t.used+1)*4 > len(ix.slots)*3 {
		ix = t.rebuild()
	}
	pos, old := ix.locate(k, h)
	switch {
	case old != nil:
		// The new entry takes the old one's place in the index in one store
		// (below): no reader finds k absent in between.
		t.vacate(old)
		t.unindex(old)
	case t.capacity > 0 && t.live == t.capacity:
		// The victim's index slot turns into a tombstone; pos, a tombstone
		// or nil already, stays a valid place for k.
		t.remove(t.victim())
		evicted = true
	}
	e := &entry{key: k, path: res.Path, found: res.Found, fp: fp}
	if n := len(t.free); n > 0 {
		e.slot, t.free = t.free[n-1], t.free[:n-1]
	} else {
		e.slot = int32(len(t.ring))
		t.ring = append(t.ring, ringSlot{})
	}
	e.gen = t.ring[e.slot].gen
	t.ring[e.slot].e = e
	if ix.slots[pos].Load() == nil {
		t.used++
	}
	ix.slots[pos].Store(e)
	if old != nil {
		old.dead.Store(true)
	}
	t.live++
	t.index(e)
	return evicted
}

// victim advances the CLOCK hand to the first entry whose reference bit is
// clear, clearing bits as it passes. Caller holds mu; the table is not
// empty.
func (t *table) victim() *entry {
	for {
		if t.hand >= len(t.ring) {
			t.hand = 0
		}
		e := t.ring[t.hand].e
		t.hand++
		if e != nil && !e.ref.Swap(false) {
			return e
		}
	}
}

// remove deletes a resident entry and its reverse-index edges. Caller holds
// mu.
func (t *table) remove(e *entry) {
	t.detach(e)
	t.unindex(e)
}

// detach unpublishes e and frees its ring slot, leaving the reverse index
// alone. Caller holds mu.
func (t *table) detach(e *entry) {
	ix := t.idx.Load()
	pos, _ := ix.locate(e.key, hash(e.key))
	ix.slots[pos].Store(tombstone)
	e.dead.Store(true)
	t.vacate(e)
}

// vacate frees e's ring slot. Bumping the slot's gen kills e's refs in the
// reverse index where they lie; unindex settles the counts. Caller holds
// mu.
func (t *table) vacate(e *entry) {
	rs := &t.ring[e.slot]
	rs.e = nil
	if rs.gen++; rs.gen < maxGen {
		t.free = append(t.free, e.slot)
	}
	t.live--
}

// rebuild publishes a fresh index of the resident entries, at most half
// full: tombstones are gone, and an unbounded table has room to grow.
// Readers still probing the old one are turned back by dead. Caller holds
// mu.
func (t *table) rebuild() *index {
	n := minIndex
	for n < 2*t.live {
		n <<= 1
	}
	ix := newIndex(n)
	t.each(func(e *entry) {
		pos, _ := ix.locate(e.key, hash(e.key))
		ix.slots[pos].Store(e)
	})
	t.used = t.live
	t.idx.Store(ix)
	return ix
}

// index adds e's dependency edges. Caller holds mu.
func (t *table) index(e *entry) {
	if !e.found {
		t.negs.add(e)
		return
	}
	for _, l := range e.fp.Links {
		addRef(t.byLink, l, e)
	}
	for _, tk := range e.fp.Terms {
		addRef(t.byTerm, tk, e)
	}
}

// unindex retires e's dependency edges once e has left the ring. Caller
// holds mu.
func (t *table) unindex(e *entry) {
	if !e.found {
		t.negs.drop(t.ring)
		return
	}
	for _, l := range e.fp.Links {
		dropRef(t.byLink, l, t.ring)
	}
	for _, tk := range e.fp.Terms {
		dropRef(t.byTerm, tk, t.ring)
	}
}

// victims resolves the resident entries the change can affect through the
// reverse index, in slot order: routes crossing a failed link, routes
// admitted by a removed or modified policy term, and — when the change
// broadens what is routable — cached negative answers. Shared by
// evictScoped (which deletes them) and the read-only plan path
// CollectAffected (which only reports them), so prediction and eviction can
// never disagree on the soundness rules. A ref whose entry is gone resolves
// to nothing. Caller holds mu.
func (t *table) victims(c synthesis.Change) []*entry {
	var slots []int32
	switch c.Kind {
	case synthesis.ChangeLinkDown:
		slots = t.byLink[ad.LinkKey(c.A, c.B)].appendLive(slots, t.ring)
	case synthesis.ChangePolicy:
		for _, tk := range c.RemovedTerms {
			slots = t.byTerm[tk].appendLive(slots, t.ring)
		}
	}
	if c.AffectsNegative() {
		slots = t.negs.appendLive(slots, t.ring)
	}
	if len(slots) == 0 {
		return nil
	}
	// An entry admitted by two removed terms is in two buckets.
	slices.Sort(slots)
	slots = slices.Compact(slots)
	out := make([]*entry, len(slots))
	for i, s := range slots {
		out[i] = t.ring[s].e
	}
	return out
}

// evictScoped drops every entry the change can affect and returns how many
// it deleted. Caller holds mu.
func (t *table) evictScoped(c synthesis.Change) int {
	vs := t.victims(c)
	for _, e := range vs {
		t.remove(e)
	}
	return len(vs)
}

// each calls fn for every resident entry in slot order. Caller holds mu.
func (t *table) each(fn func(*entry)) {
	for i := range t.ring {
		if e := t.ring[i].e; e != nil {
			fn(e)
		}
	}
}

func (e *entry) result() Result { return Result{Path: e.path, Found: e.found} }

func (e *entry) export() CacheEntry { return CacheEntry{Key: e.key, Res: e.result(), Fp: e.fp} }

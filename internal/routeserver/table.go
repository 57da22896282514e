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

// The shard owns its entries: one table per shard holds the answers, the
// replacement order and the reverse dependency index, in the arena idiom of
// internal/pgstate — an entry sits in one ring slot for its whole life and
// everything that refers to it does so by slot number.
//
// The shard is also the only thing that says where a key is: resident (in
// the index), pending (in pending: one query, its leader, is computing it
// and the others wait on its call), or absent. A query that get misses
// settles which under mu (claim); the leader's insert puts the answer and
// withdraws the claim in one critical section, so a computed key is never in
// neither place, and nobody else removes a claim — a mutation drops entries
// and leaves pending alone.
//
// Only get reads without a lock. It loads the published index and probes an
// open-addressed array of atomic entry pointers; every other field of the
// shard belongs to writers, who hold mu. An entry is immutable once
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
type index struct {
	slots []atomic.Pointer[entry]
	shift uint32 // 32 - log2(len(slots))
}

const minIndex = 8

func newIndex(n int) *index {
	return &index{slots: make([]atomic.Pointer[entry], n), shift: uint32(32 - bits.TrailingZeros(uint(n)))}
}

// home is where k's probe starts. The shard was picked by the hash's low
// bits; the multiply folds every bit into the high ones used here.
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

// shard is one slice of the route cache: the published index, the CLOCK
// ring with its LIFO free list, and the reverse dependency index over the
// resident entries — byLink/byTerm map each footprint element to the
// entries depending on it, and negs holds the cached negative ("no legal
// route") answers, which depend on the absence of routes rather than on any
// particular link or term. Everything but idx is read and written under mu.
type shard struct {
	mu       sync.Mutex
	idx      atomic.Pointer[index]
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

// purge drops every resident entry. Caller holds mu (or owns sh outright).
// The empty index is published before the old entries are marked dead, so a
// reader sent back by a dead entry finds the new one.
func (sh *shard) purge() {
	sh.idx.Store(newIndex(minIndex))
	sh.each(func(e *entry) { e.dead.Store(true) })
	sh.ring, sh.free, sh.hand, sh.live, sh.used = nil, nil, 0, 0, 0
	sh.byLink = make(map[[2]ad.ID]*bucket)
	sh.byTerm = make(map[policy.Key]*bucket)
	sh.negs = bucket{}
}

// get is the lock-free hit path: k's resident entry, or nil.
func (sh *shard) get(k Key, h uint32) *entry {
	for {
		e, stale := sh.idx.Load().find(k, h)
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
func (sh *shard) claim(k Key, h uint32) (e *entry, c *call, lead bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, e := sh.idx.Load().locate(k, h); e != nil {
		e.touch()
		return e, nil, false
	}
	if c := sh.pending[k]; c != nil {
		return nil, c, false
	}
	c = &call{}
	c.wg.Add(1)
	sh.pending[k] = c
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
func (sh *shard) put(k Key, h uint32, res Result, fp synthesis.Footprint) (evicted bool) {
	ix := sh.idx.Load()
	if (sh.used+1)*4 > len(ix.slots)*3 {
		ix = sh.rebuild()
	}
	pos, old := ix.locate(k, h)
	switch {
	case old != nil:
		// The new entry takes the old one's place in the index in one store
		// (below): no reader finds k absent in between.
		sh.vacate(old)
		sh.unindex(old)
	case sh.capacity > 0 && sh.live == sh.capacity:
		// The victim's index slot turns into a tombstone; pos, a tombstone
		// or nil already, stays a valid place for k.
		sh.remove(sh.victim())
		evicted = true
	}
	e := &entry{key: k, path: res.Path, found: res.Found, fp: fp}
	if n := len(sh.free); n > 0 {
		e.slot, sh.free = sh.free[n-1], sh.free[:n-1]
	} else {
		e.slot = int32(len(sh.ring))
		sh.ring = append(sh.ring, ringSlot{})
	}
	e.gen = sh.ring[e.slot].gen
	sh.ring[e.slot].e = e
	if ix.slots[pos].Load() == nil {
		sh.used++
	}
	ix.slots[pos].Store(e)
	if old != nil {
		old.dead.Store(true)
	}
	sh.live++
	sh.index(e)
	return evicted
}

// victim advances the CLOCK hand to the first entry whose reference bit is
// clear, clearing bits as it passes. Caller holds mu; the shard is not
// empty.
func (sh *shard) victim() *entry {
	for {
		if sh.hand >= len(sh.ring) {
			sh.hand = 0
		}
		e := sh.ring[sh.hand].e
		sh.hand++
		if e != nil && !e.ref.Swap(false) {
			return e
		}
	}
}

// remove deletes a resident entry and its reverse-index edges. Caller holds
// mu.
func (sh *shard) remove(e *entry) {
	sh.detach(e)
	sh.unindex(e)
}

// detach unpublishes e and frees its ring slot, leaving the reverse index
// alone. Caller holds mu.
func (sh *shard) detach(e *entry) {
	ix := sh.idx.Load()
	pos, _ := ix.locate(e.key, hash(e.key))
	ix.slots[pos].Store(tombstone)
	e.dead.Store(true)
	sh.vacate(e)
}

// vacate frees e's ring slot. Bumping the slot's gen kills e's refs in the
// reverse index where they lie; unindex settles the counts. Caller holds
// mu.
func (sh *shard) vacate(e *entry) {
	rs := &sh.ring[e.slot]
	rs.e = nil
	if rs.gen++; rs.gen < maxGen {
		sh.free = append(sh.free, e.slot)
	}
	sh.live--
}

// rebuild publishes a fresh index of the resident entries, at most half
// full: tombstones are gone, and an unbounded shard has room to grow.
// Readers still probing the old one are turned back by dead. Caller holds
// mu.
func (sh *shard) rebuild() *index {
	n := minIndex
	for n < 2*sh.live {
		n <<= 1
	}
	ix := newIndex(n)
	sh.each(func(e *entry) {
		pos, _ := ix.locate(e.key, hash(e.key))
		ix.slots[pos].Store(e)
	})
	sh.used = sh.live
	sh.idx.Store(ix)
	return ix
}

// index adds e's dependency edges. Caller holds mu.
func (sh *shard) index(e *entry) {
	if !e.found {
		sh.negs.add(e)
		return
	}
	for _, l := range e.fp.Links {
		addRef(sh.byLink, l, e)
	}
	for _, t := range e.fp.Terms {
		addRef(sh.byTerm, t, e)
	}
}

// unindex retires e's dependency edges once e has left the ring. Caller
// holds mu.
func (sh *shard) unindex(e *entry) {
	if !e.found {
		sh.negs.drop(sh.ring)
		return
	}
	for _, l := range e.fp.Links {
		dropRef(sh.byLink, l, sh.ring)
	}
	for _, t := range e.fp.Terms {
		dropRef(sh.byTerm, t, sh.ring)
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
func (sh *shard) victims(c synthesis.Change) []*entry {
	var slots []int32
	switch c.Kind {
	case synthesis.ChangeLinkDown:
		slots = sh.byLink[synthesis.CanonicalPair(c.A, c.B)].appendLive(slots, sh.ring)
	case synthesis.ChangePolicy:
		for _, tk := range c.RemovedTerms {
			slots = sh.byTerm[tk].appendLive(slots, sh.ring)
		}
	}
	if c.AffectsNegative() {
		slots = sh.negs.appendLive(slots, sh.ring)
	}
	if len(slots) == 0 {
		return nil
	}
	// An entry admitted by two removed terms is in two buckets.
	slices.Sort(slots)
	slots = slices.Compact(slots)
	out := make([]*entry, len(slots))
	for i, s := range slots {
		out[i] = sh.ring[s].e
	}
	return out
}

// evictScoped drops every entry the change can affect and returns how many
// it deleted. Caller holds mu.
func (sh *shard) evictScoped(c synthesis.Change) int {
	vs := sh.victims(c)
	for _, e := range vs {
		sh.remove(e)
	}
	return len(vs)
}

// each calls fn for every resident entry in slot order. Caller holds mu.
func (sh *shard) each(fn func(*entry)) {
	for i := range sh.ring {
		if e := sh.ring[i].e; e != nil {
			fn(e)
		}
	}
}

func (e *entry) result() Result { return Result{Path: e.path, Found: e.found} }

func (e *entry) export() CacheEntry { return CacheEntry{Key: e.key, Res: e.result(), Fp: e.fp} }

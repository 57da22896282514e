package routeserver

import (
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
// table belongs to writers, who hold mu. What a reader loads of an entry is
// immutable once published, apart from its state bits, so a reader holding
// the pointer holds the answer, and a hit linearizes at the load of its index slot: the entry
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
//
// A cached route costs what it holds. An entry keeps its path and, per
// transit position, the serial of the term charged there; its footprint's
// links are its path's, and footprint rebuilds the rest on export. The
// reverse index is exact: a bucket lists the live edges of one link or term
// (or the negative answers), each entry records where each of its edges
// sits, and removal moves the bucket's last edge into the hole, so no
// bucket holds a dead edge or keeps more than four times its length in
// capacity.

// entry is one cached answer. Readers load key, path, found and state;
// slot and aux belong to writers. The links an entry depends on are
// its path's, so it stores no footprint (footprint derives it on export),
// only aux: for a found route of n ADs with t = n-2 transit positions, its
// position in each of its n-1 link buckets, then in the bucket of the term
// charged at each transit position, then the serial of that term (0 =
// none: term serials start at 1); for a negative answer, its position in
// negs. newEntry carves aux from the entry's own allocation.
type entry struct {
	key   Key
	slot  int32 // its place in the ring
	state atomic.Uint32
	found bool
	path  ad.Path
	aux   []uint32
}

// The bits of entry.state: referenced is the CLOCK reference bit, and dead
// is set once, by the writer that unpublished the entry. Writers hold mu;
// readers set referenced at the same time, so every change is a
// compare-and-swap.
const (
	referenced uint32 = 1 << iota
	dead
)

func (e *entry) isDead() bool { return e.state.Load()&dead != 0 }

// kill sets dead.
func (e *entry) kill() {
	for s := e.state.Load(); !e.state.CompareAndSwap(s, s|dead); s = e.state.Load() {
	}
}

// touch sets the CLOCK reference bit, writing only when it reads it clear.
func (e *entry) touch() {
	if s := e.state.Load(); s&referenced == 0 {
		e.state.CompareAndSwap(s, s|referenced)
	}
}

// unref clears the reference bit and reports whether it was set.
func (e *entry) unref() bool {
	for {
		s := e.state.Load()
		if s&referenced == 0 {
			return false
		}
		if e.state.CompareAndSwap(s, s&^referenced) {
			return true
		}
	}
}

// withAux is an entry and the storage its aux is carved from, in one
// allocation. The sizes round 72 bytes of entry plus aux up to the
// allocator's size classes.
type withAux[A any] struct {
	entry
	buf A
}

// maxRoute is the longest route the table indexes: a bucket names each of an
// entry's records with recBits bits. A longer one is answered, not cached.
const maxRoute = 1 + 1<<recBits

// newEntry allocates the entry for k's answer with aux sized for it and
// every serial 0, or returns nil for a route longer than maxRoute. Only the
// rare route of more than eleven ADs takes a second allocation for aux.
func newEntry(k Key, res Result) *entry {
	w := 1
	if res.Found {
		if len(res.Path) > maxRoute {
			return nil
		}
		w = max(len(res.Path)-1, 0) + 2*transits(res.Path)
	}
	var e *entry
	switch {
	case w == 0:
		e = new(entry)
	case w <= 2:
		x := new(withAux[[2]uint32])
		x.aux, e = x.buf[:w:w], &x.entry
	case w <= 6:
		x := new(withAux[[6]uint32])
		x.aux, e = x.buf[:w:w], &x.entry
	case w <= 10:
		x := new(withAux[[10]uint32])
		x.aux, e = x.buf[:w:w], &x.entry
	case w <= 14:
		x := new(withAux[[14]uint32])
		x.aux, e = x.buf[:w:w], &x.entry
	case w <= 18:
		x := new(withAux[[18]uint32])
		x.aux, e = x.buf[:w:w], &x.entry
	case w <= 22:
		x := new(withAux[[22]uint32])
		x.aux, e = x.buf[:w:w], &x.entry
	case w <= 30:
		x := new(withAux[[30]uint32])
		x.aux, e = x.buf[:w:w], &x.entry
	default:
		e = &entry{aux: make([]uint32, w)}
	}
	e.key, e.path, e.found = k, res.Path, res.Found
	return e
}

// transits is the number of transit positions of path.
func transits(path ad.Path) int { return max(len(path)-2, 0) }

// linkPos, termPos and charged are the three parts of a found entry's aux:
// linkPos[j] for the link from path[j] to path[j+1], termPos[j] and
// charged[j] for the term charged at path[j+1].
func (e *entry) linkPos() []uint32 { return e.aux[:max(len(e.path)-1, 0)] }

func (e *entry) termPos() []uint32 {
	l := max(len(e.path)-1, 0)
	return e.aux[l : l+transits(e.path)]
}

func (e *entry) charged() []uint32 {
	if !e.found {
		return nil
	}
	return e.aux[max(len(e.path)-1, 0)+transits(e.path):]
}

// charge copies fp's serials into e and reports whether fp is the footprint
// of e's path; a negative answer's must be empty. The table refuses an entry
// that fails: it stores no footprint but the one its path implies.
func (e *entry) charge(fp synthesis.Footprint) bool {
	if !e.found {
		return len(fp.Links) == 0 && len(fp.Terms) == 0
	}
	_, ok := fp.Charged(e.charged()[:0], e.path)
	return ok
}

// footprint is the dependency set e was indexed under, as the strategy
// produced it.
func (e *entry) footprint() synthesis.Footprint {
	if !e.found {
		return synthesis.Footprint{}
	}
	return synthesis.FootprintOf(e.path, e.charged())
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

// bucket is the set of resident entries depending on one link or term (or,
// for negs, the cached negative answers), in no order. Each element is an
// edge: an entry's ring slot and which of its records (linkPos or termPos
// index, 0 in negs) holds the edge's position here. So a bucket holds
// exactly its live edges: removal moves the last edge into the hole and
// writes its new position straight into the record the edge names. Its
// capacity is at most four times its length or minBucket, so a bucket that
// shrank gives its memory back.
type bucket struct {
	edges []edge
}

// edge is slot<<recBits | record.
type edge uint32

const recBits = 6

// maxSlots bounds the ring, so that every slot fits an edge: an unbounded
// table holds up to 2^26 entries.
const maxSlots = 1 << (32 - recBits)

func edgeOf(slot int32, rec int) edge { return edge(slot)<<recBits | edge(rec) }

func (d edge) slot() int32 { return int32(d >> recBits) }

func (d edge) rec() int { return int(d & (1<<recBits - 1)) }

const minBucket = 8

// add appends d and returns its position.
func (b *bucket) add(d edge) uint32 {
	b.edges = append(b.edges, d)
	return uint32(len(b.edges) - 1)
}

// cut removes the edge at pos. When another edge moved into pos from the
// end, it returns that edge and true, and the caller points the record the
// edge names at pos.
func (b *bucket) cut(pos uint32) (moved edge, ok bool) {
	last := len(b.edges) - 1
	moved, ok = b.edges[last], int(pos) != last
	b.edges[pos] = moved
	b.edges = b.edges[:last]
	if c := cap(b.edges); c > minBucket && 4*last < c {
		b.edges = append(make([]edge, 0, 2*last), b.edges...)
	}
	return moved, ok
}

// bucketOf returns k's bucket, adding an empty one if k has none.
func bucketOf[K comparable](m map[K]*bucket, k K) *bucket {
	b := m[k]
	if b == nil {
		b = &bucket{}
		m[k] = b
	}
	return b
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
	ring     []*entry
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
	t.each((*entry).kill)
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
			return e, e.isDead()
		}
	}
}

// put stores e, a newEntry with its serials charged, replacing any resident
// entry for its key, and reports whether an unrelated entry was evicted to
// make room. Caller holds mu.
func (t *table) put(e *entry, h uint32) (evicted bool) {
	ix := t.idx.Load()
	if (t.used+1)*4 > len(ix.slots)*3 {
		ix = t.rebuild()
	}
	pos, old := ix.locate(e.key, h)
	switch {
	case old != nil:
		// The new entry takes the old one's place in the index in one store
		// (below): no reader finds the key absent in between.
		t.unindex(old)
		t.vacate(old)
	case t.live == maxSlots || t.capacity > 0 && t.live == t.capacity:
		// The victim's index slot turns into a tombstone; pos, a tombstone
		// or nil already, stays a valid place for the key.
		t.remove(t.victim())
		evicted = true
	}
	if n := len(t.free); n > 0 {
		e.slot, t.free = t.free[n-1], t.free[:n-1]
	} else {
		e.slot = int32(len(t.ring))
		t.ring = append(t.ring, nil)
	}
	t.ring[e.slot] = e
	if ix.slots[pos].Load() == nil {
		t.used++
	}
	ix.slots[pos].Store(e)
	if old != nil {
		old.kill()
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
		e := t.ring[t.hand]
		t.hand++
		if e != nil && !e.unref() {
			return e
		}
	}
}

// remove deletes a resident entry and its reverse-index edges. Caller holds
// mu.
func (t *table) remove(e *entry) {
	t.unindex(e)
	ix := t.idx.Load()
	pos, _ := ix.locate(e.key, hash(e.key))
	ix.slots[pos].Store(tombstone)
	e.kill()
	t.vacate(e)
}

// vacate frees e's ring slot. Caller holds mu.
func (t *table) vacate(e *entry) {
	t.ring[e.slot] = nil
	t.free = append(t.free, e.slot)
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

// buckets appends to bs the bucket of each of found entry e's links, then
// of the term charged at each transit position (nil where none was),
// adding any that is missing. index and unindex look every bucket up first,
// so their loops over the buckets make no call and the processor overlaps
// those loops' cache misses. Caller holds mu.
func (t *table) buckets(bs []*bucket, e *entry) []*bucket {
	for j := range e.linkPos() {
		bs = append(bs, bucketOf(t.byLink, ad.LinkKey(e.path[j], e.path[j+1])))
	}
	for j, serial := range e.charged() {
		var b *bucket
		if serial != 0 {
			b = bucketOf(t.byTerm, policy.Key{Advertiser: e.path[j+1], Serial: serial})
		}
		bs = append(bs, b)
	}
	return bs
}

// index adds e's dependency edges, recording each one's position in aux.
// Caller holds mu.
func (t *table) index(e *entry) {
	if !e.found {
		e.aux[0] = t.negs.add(edgeOf(e.slot, 0))
		return
	}
	lp, tp := e.linkPos(), e.termPos()
	var buf [2 * maxRoute]*bucket
	bs := t.buckets(buf[:0], e)
	for j, b := range bs[:len(lp)] {
		lp[j] = b.add(edgeOf(e.slot, j))
	}
	for j, b := range bs[len(lp):] {
		if b != nil {
			tp[j] = b.add(edgeOf(e.slot, j))
		}
	}
}

// unindex removes e's dependency edges while e still holds its ring slot:
// the edge that moves into each hole names the record to update, found
// through the ring (it may be e's own, when e's path revisits an AD), and
// an emptied bucket leaves its map. Caller holds mu.
func (t *table) unindex(e *entry) {
	if !e.found {
		if d, ok := t.negs.cut(e.aux[0]); ok {
			t.ring[d.slot()].aux[0] = e.aux[0]
		}
		return
	}
	lp, tp, charged := e.linkPos(), e.termPos(), e.charged()
	var buf [2 * maxRoute]*bucket
	bs := t.buckets(buf[:0], e)
	for j, b := range bs[:len(lp)] {
		if d, ok := b.cut(lp[j]); ok {
			t.ring[d.slot()].linkPos()[d.rec()] = lp[j]
		} else if len(b.edges) == 0 {
			delete(t.byLink, ad.LinkKey(e.path[j], e.path[j+1]))
		}
	}
	for j, b := range bs[len(lp):] {
		if b == nil {
			continue
		}
		if d, ok := b.cut(tp[j]); ok {
			t.ring[d.slot()].termPos()[d.rec()] = tp[j]
		} else if len(b.edges) == 0 {
			delete(t.byTerm, policy.Key{Advertiser: e.path[j+1], Serial: charged[j]})
		}
	}
}

// victims resolves the resident entries the change can affect through the
// reverse index, in slot order: routes crossing a failed link, routes
// admitted by a removed or modified policy term, and — when the change
// broadens what is routable — cached negative answers. Shared by
// evictScoped (which deletes them) and the read-only plan path
// CollectAffected (which only reports them), so prediction and eviction can
// never disagree on the soundness rules. Caller holds mu.
func (t *table) victims(c synthesis.Change) []*entry {
	var slots []int32
	add := func(b *bucket) {
		if b != nil {
			for _, d := range b.edges {
				slots = append(slots, d.slot())
			}
		}
	}
	switch c.Kind {
	case synthesis.ChangeLinkDown:
		add(t.byLink[ad.LinkKey(c.A, c.B)])
	case synthesis.ChangePolicy:
		for _, tk := range c.RemovedTerms {
			add(t.byTerm[tk])
		}
	}
	if c.AffectsNegative() {
		add(&t.negs)
	}
	if len(slots) == 0 {
		return nil
	}
	// An entry is in a bucket once per edge it has there, and an entry
	// admitted by two removed terms is in two buckets.
	slices.Sort(slots)
	slots = slices.Compact(slots)
	out := make([]*entry, len(slots))
	for i, s := range slots {
		out[i] = t.ring[s]
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
	for _, e := range t.ring {
		if e != nil {
			fn(e)
		}
	}
}

func (e *entry) result() Result { return Result{Path: e.path, Found: e.found} }

func (e *entry) export() CacheEntry {
	return CacheEntry{Key: e.key, Res: e.result(), Fp: e.footprint()}
}

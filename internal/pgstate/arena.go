package pgstate

import "math/bits"

// The arena packs handle records into fixed-size slabs with free-list
// reuse. A record never moves once allocated, so the handle map, the timer
// wheel and the recency list can all refer to it by a stable int32 index;
// a released slot goes onto the free list and is handed back to the next
// Install, which keeps steady-state install/remove traffic allocation-free
// (a new slab is allocated only when the table grows past every slot it
// has ever held).

// Slab sizing: the first slabs ramp up — 16, 16, 32, 64 and 128 records,
// so the capacity doubles from 16 to 256 — because most tables are the
// simulator's per-PG ones holding a handful of flows. From then on every
// slab holds 256 records (~24 KB): growth increments stay small, and one
// table holds millions of records without ever moving one. Ramp slab k > 0
// holds indices [8<<k, 16<<k), so index idx below 256 lives in slab
// bits.Len(idx>>4); from 256 on, slab rampSlabs-1+idx>>8 holds it.
const (
	firstShift = 4
	slabShift  = 8
	slabSize   = 1 << slabShift
	slabMask   = slabSize - 1
	rampSlabs  = slabShift - firstShift + 1
)

// slabLen returns the record count of slab k.
func slabLen(k int) int {
	if k == 0 {
		return 1 << firstShift
	}
	return 1 << min(firstShift+k-1, slabShift)
}

// rec is one arena slot: the entry payload, its handle (so wheel sweeps can
// report handles without a reverse map), and one pair of intrusive links.
// A record is on at most one intrusive list: under soft state its wheel
// slot's chain, under capped state the table's recency list, under hard
// state none. gen is bumped on every release so stale overflow-heap
// references to a reused slot can be detected and skipped.
type rec struct {
	entry  Entry
	handle uint64
	gen    uint32
	live   bool
	// wSlot is the flat wheel slot holding this record
	// (level*wheelSlots+slot), wheelOverflow, or wheelNone when the record
	// is not scheduled. next/prev are the arena indices of its neighbours
	// on its list (-1 terminated).
	wSlot      int32
	next, prev int32
}

// arena is a grow-only collection of slabs plus a LIFO free list of
// released slots.
type arena struct {
	slabs [][]rec
	free  []int32
}

// at returns the record for idx. The pointer is stable for the record's
// lifetime but must not be retained past a release of idx.
func (a *arena) at(idx int32) *rec {
	i := uint32(idx)
	if i >= slabSize {
		return &a.slabs[rampSlabs-1+i>>slabShift][i&slabMask]
	}
	k := bits.Len32(i >> firstShift)
	return &a.slabs[k][i&^(1<<k>>1<<firstShift)] // clear the bit slab k starts at
}

// alloc returns a free record index, growing by one slab when the free
// list is empty. The returned record is zeroed except for gen (which must
// survive reuse for staleness detection).
func (a *arena) alloc() int32 {
	if n := len(a.free); n > 0 {
		idx := a.free[n-1]
		a.free = a.free[:n-1]
		r := a.at(idx)
		r.live = true
		r.wSlot, r.next, r.prev = wheelNone, -1, -1
		return idx
	}
	// The new slab's records follow every record so far.
	base := int32(0)
	for _, s := range a.slabs {
		base += int32(len(s))
	}
	slab := make([]rec, slabLen(len(a.slabs)))
	a.slabs = append(a.slabs, slab)
	// Hand out slot 0 now and stack the rest so they allocate in ascending
	// order.
	for i := len(slab) - 1; i >= 1; i-- {
		slab[i].wSlot = wheelNone
		slab[i].next, slab[i].prev = -1, -1
		a.free = append(a.free, base+int32(i))
	}
	r := &slab[0]
	r.live = true
	r.wSlot, r.next, r.prev = wheelNone, -1, -1
	return base
}

// pushFront puts record i first on the list whose first record is *head.
// tail, when not nil, holds the list's last record.
func (a *arena) pushFront(i int32, head, tail *int32) {
	r := a.at(i)
	r.prev, r.next = -1, *head
	if *head != -1 {
		a.at(*head).prev = i
	} else if tail != nil {
		*tail = i
	}
	*head = i
}

// unlink takes record i off the list that pushFront put it on.
func (a *arena) unlink(i int32, head, tail *int32) {
	r := a.at(i)
	if r.prev != -1 {
		a.at(r.prev).next = r.next
	} else {
		*head = r.next
	}
	if r.next != -1 {
		a.at(r.next).prev = r.prev
	} else if tail != nil {
		*tail = r.prev
	}
	r.next, r.prev = -1, -1
}

// release returns idx to the free list. The payload is cleared so the
// arena does not pin the route slice, and gen is bumped so any stale
// overflow-heap reference to this slot is recognizably dead.
func (a *arena) release(idx int32) {
	r := a.at(idx)
	r.entry = Entry{}
	r.handle = 0
	r.live = false
	r.gen++
	r.wSlot, r.next, r.prev = wheelNone, -1, -1
	a.free = append(a.free, idx)
}

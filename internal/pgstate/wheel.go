package pgstate

import "repro/internal/sim"

// The hierarchical timer wheel replaces the reference table's full-scan
// expiry: each scheduled deadline lives in a slot of one of wheelLevels
// wheels of wheelSlots slots, level l covering 2^(8(l+1)) ticks (a tick is
// one sim.Time unit, i.e. a microsecond). Advancing from one time to
// another visits only the slots the interval covers — at most
// wheelLevels*wheelSlots of them no matter how far time jumps — and
// re-checks each resident record: due records are collected, not-yet-due
// records re-schedule themselves, which is exactly the cascade from a
// coarse level into a finer one. Expiry cost is therefore proportional to
// the records actually due (plus a bounded slot-walk), never to the table
// size.
//
// Deadlines further out than the wheel's 2^32-tick horizon (~71 simulated
// minutes) wait in a min-heap overflow; each advance drains the heap
// entries whose deadlines fall back inside the horizon, so an overflow
// record is touched once on entry and once on re-entry, not per sweep.
// Cancellation marks overflow records stale in place (the record's wSlot
// and generation are re-checked on pop) and unlinks wheel records in O(1)
// through the arena's intrusive links.
//
// The wheel's clock only moves forward: advance with an earlier time is a
// no-op. Lookup/Peek/Refresh expire lazily off their own clocks, so only
// ExpireDue's completeness depends on its callers' time being
// non-decreasing — which holds for both the simulator and the data plane's
// logical clock.
const (
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 4
	// wheelSpan is the horizon: deltas at or beyond it go to overflow.
	wheelSpan = uint64(1) << (wheelBits * wheelLevels)
)

// Sentinel wSlot values for records not resident in a wheel slot.
const (
	wheelNone     int32 = -1
	wheelOverflow int32 = -2
)

// farEntry is an overflow-heap element. idx/gen identify the arena record;
// a popped element whose record was released (gen mismatch) or rescheduled
// (wSlot no longer wheelOverflow) is stale and skipped.
type farEntry struct {
	deadline sim.Time
	idx      int32
	gen      uint32
}

// wheel is a soft table's expiry schedule. It is guarded by the table mutex.
type wheel struct {
	cur      uint64 // ticks: every deadline < cur has been collected
	slots    [wheelLevels * wheelSlots]int32
	overflow []farEntry // min-heap by deadline

	// Sweep-cost counters (reported via Table.SweepCost, not Stats):
	// slotsVisited counts slot walks, entriesVisited records popped from
	// slots or the overflow heap during advance.
	slotsVisited   uint64
	entriesVisited uint64
}

func newWheel() *wheel {
	w := &wheel{}
	for i := range w.slots {
		w.slots[i] = wheelNone
	}
	return w
}

// schedule places record idx (whose entry deadline is deadline) on the
// wheel. A deadline at or behind the cursor lands in the next tick so the
// following advance re-checks it; collection always re-verifies the real
// deadline, so clamping never expires anything early.
func (w *wheel) schedule(a *arena, idx int32, deadline sim.Time) {
	d := uint64(deadline)
	if d <= w.cur {
		d = w.cur + 1
	}
	r := a.at(idx)
	delta := d - w.cur
	if delta >= wheelSpan {
		r.wSlot = wheelOverflow
		w.overflowPush(farEntry{deadline: deadline, idx: idx, gen: r.gen})
		return
	}
	level := 0
	for delta >= uint64(1)<<(wheelBits*(level+1)) {
		level++
	}
	slot := int((d >> (wheelBits * level)) & wheelMask)
	flat := int32(level*wheelSlots + slot)
	r.wSlot = flat
	a.pushFront(idx, &w.slots[flat], nil)
}

// cancel removes record idx from the schedule. Overflow records are marked
// stale in place; wheel records unlink in O(1).
func (w *wheel) cancel(a *arena, idx int32) {
	r := a.at(idx)
	switch r.wSlot {
	case wheelNone:
		return
	case wheelOverflow:
		r.wSlot = wheelNone // heap element goes stale, skipped on pop
	default:
		a.unlink(idx, &w.slots[r.wSlot], nil)
		r.wSlot = wheelNone
	}
}

// advance moves the cursor to now and appends to due the indices of every
// record whose deadline has passed (deadline < now, matching
// Entry.expired's strict inequality). Collected records are unscheduled;
// visited records that are not yet due re-schedule themselves relative to
// the new cursor, cascading toward finer levels as their deadlines near.
func (w *wheel) advance(a *arena, now sim.Time, due []int32) []int32 {
	target := uint64(now)
	if target <= w.cur {
		return due
	}
	oldCur := w.cur
	w.cur = target

	// Overflow entries whose deadline fell inside the horizon re-enter the
	// wheel (or expire outright). The heap keeps the rest untouched.
	for len(w.overflow) > 0 && uint64(w.overflow[0].deadline) < target+wheelSpan {
		fe := w.overflowPop()
		r := a.at(fe.idx)
		if !r.live || r.gen != fe.gen || r.wSlot != wheelOverflow {
			continue // released, reused, or rescheduled since push
		}
		w.entriesVisited++
		r.wSlot = wheelNone
		if uint64(r.entry.Deadline) < target {
			due = append(due, fe.idx)
		} else {
			w.schedule(a, fe.idx, r.entry.Deadline)
		}
	}

	// Walk each level across the slots the interval covers, capped at one
	// full rotation: a slot holds only deadlines within its level's range
	// of the cursor, so one rotation covers every index that can be
	// resident. Slots are popped whole before processing, and a not-yet-due
	// record re-schedules at an absolute index past the target, so nothing
	// is visited twice in one advance.
	for level := 0; level < wheelLevels; level++ {
		shift := uint(wheelBits * level)
		from := oldCur >> shift
		to := target >> shift
		steps := to - from + 1
		if steps > wheelSlots {
			steps = wheelSlots
		}
		for i := uint64(0); i < steps; i++ {
			flat := int32(level*wheelSlots + int((from+i)&wheelMask))
			w.slotsVisited++
			idx := w.slots[flat]
			w.slots[flat] = wheelNone
			for idx != -1 {
				r := a.at(idx)
				next := r.next
				r.wSlot, r.next, r.prev = wheelNone, -1, -1
				w.entriesVisited++
				if uint64(r.entry.Deadline) < target {
					due = append(due, idx)
				} else {
					w.schedule(a, idx, r.entry.Deadline)
				}
				idx = next
			}
		}
	}
	return due
}

// overflowPush adds fe to the min-heap.
func (w *wheel) overflowPush(fe farEntry) {
	w.overflow = append(w.overflow, fe)
	i := len(w.overflow) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if w.overflow[parent].deadline <= w.overflow[i].deadline {
			break
		}
		w.overflow[parent], w.overflow[i] = w.overflow[i], w.overflow[parent]
		i = parent
	}
}

// overflowPop removes and returns the heap minimum.
func (w *wheel) overflowPop() farEntry {
	top := w.overflow[0]
	last := len(w.overflow) - 1
	w.overflow[0] = w.overflow[last]
	w.overflow = w.overflow[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && w.overflow[l].deadline < w.overflow[small].deadline {
			small = l
		}
		if r < last && w.overflow[r].deadline < w.overflow[small].deadline {
			small = r
		}
		if small == i {
			return top
		}
		w.overflow[i], w.overflow[small] = w.overflow[small], w.overflow[i]
		i = small
	}
}

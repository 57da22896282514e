// Package sim provides the deterministic discrete-event simulation engine on
// which all routing protocols in this repository run.
//
// Simulated time is measured in integer microseconds. Events that share a
// timestamp are executed in the order they were scheduled, so a run is fully
// reproducible given the same seed and scenario.
package sim

import (
	"fmt"
	"math"
	"slices"
)

// Time is a simulated timestamp in microseconds since the start of the run.
type Time int64

// Common durations, expressed in Time units.
const (
	Microsecond Time = 1
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String renders the time as seconds with microsecond precision.
func (t Time) String() string {
	return fmt.Sprintf("%d.%06ds", int64(t)/int64(Second), int64(t)%int64(Second))
}

// event is one queued entry: its time, its sequence number, and the slot of
// the engine's table that holds what it runs. It holds no pointer, so a
// sift moves plain words past no write barrier and the collector never
// scans the queue; and it is two words, so a sift moves little.
type event struct {
	at   Time
	seq  uint32
	slot int32
}

// slot is what a queued event runs: a callback, or a message delivery
// (Network.Send queues a recycled delivery record instead of allocating a
// closure per message).
type slot struct {
	fn func()
	d  *delivery
}

// eventHeap is a binary min-heap of events ordered by (time, sequence). It
// stores events by value and sifts manually, so scheduling allocates nothing
// beyond occasional slice growth (no per-event box, no interface conversion).
type eventHeap []event

func (h eventHeap) less(i, j int) bool { return before(h[i], h[j]) }

// before reports whether a runs before b: earlier, or scheduled first.
func before(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	for i := 0; ; {
		smallest := i
		if l := 2*i + 1; l < n && s.less(l, smallest) {
			smallest = l
		}
		if r := 2*i + 2; r < n && s.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
	return top
}

// Engine is a deterministic discrete-event scheduler. The zero value is not
// usable; create one with NewEngine.
type Engine struct {
	now Time
	// seq numbers the events scheduled, from 1; renumber restarts it.
	seq   uint32
	queue eventHeap
	// slots holds what the queued events run, by event.slot; free lists
	// the slots no queued event names. Both grow to the run's busiest
	// moment and are reused from then on.
	slots []slot
	free  []int32
}

// NewEngine returns an engine with an empty queue at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at absolute time t. Scheduling in the past (before
// Now) panics: it would make the run non-causal.
func (e *Engine) At(t Time, fn func()) {
	e.schedule(t, slot{fn: fn})
}

// schedule queues what to run at time at, behind every event already
// queued for that time.
func (e *Engine) schedule(at Time, what slot) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", at, e.now))
	}
	var i int32
	if n := len(e.free); n > 0 {
		i = e.free[n-1]
		e.free = e.free[:n-1]
		e.slots[i] = what
	} else {
		i = int32(len(e.slots))
		e.slots = append(e.slots, what)
	}
	if e.seq == math.MaxUint32 {
		e.renumber()
	}
	e.seq++
	e.queue.push(event{at: at, seq: e.seq, slot: i})
}

// renumber gives the queued events the sequence numbers 1..n in the order
// they will run, and restarts the count behind them, so 32 bits number the
// events of a run of any length. A sorted queue is a heap.
func (e *Engine) renumber() {
	slices.SortFunc(e.queue, func(a, b event) int {
		if before(a, b) {
			return -1
		}
		return 1
	})
	for i := range e.queue {
		e.queue[i].seq = uint32(i + 1)
	}
	e.seq = uint32(len(e.queue))
}

// After schedules fn to run d after the current time. Negative d panics.
func (e *Engine) After(d Time, fn func()) {
	e.At(e.now+d, fn)
}

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return len(e.queue) }

// Run executes events until the queue is empty. It returns the time of the
// last executed event.
func (e *Engine) Run() Time {
	return e.RunUntil(1<<62 - 1)
}

// RunUntil executes events with timestamps <= limit, in order. It returns
// the current time when it stops (the last event time, or limit if the queue
// still holds later events).
func (e *Engine) RunUntil(limit Time) Time {
	for len(e.queue) > 0 {
		if e.queue[0].at > limit {
			e.now = limit
			return e.now
		}
		e.run(e.queue.pop())
	}
	return e.now
}

// run executes one dequeued event at its time. Its slot is released first,
// so what it schedules may reuse it, and cleared, so the callback and the
// delivery are not kept alive by the table.
func (e *Engine) run(ev event) {
	what := e.slots[ev.slot]
	e.slots[ev.slot] = slot{}
	e.free = append(e.free, ev.slot)
	e.now = ev.at
	if what.d != nil {
		what.d.nw.deliver(what.d)
	} else {
		what.fn()
	}
}

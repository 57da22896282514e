// Package sim provides the deterministic discrete-event simulation engine on
// which all routing protocols in this repository run.
//
// Simulated time is measured in integer microseconds. Events that share a
// timestamp are executed in the order they were scheduled, so a run is fully
// reproducible given the same seed and scenario.
package sim

import (
	"fmt"
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

// event is a scheduled callback, or a message delivery: Network.Send
// queues a recycled delivery record instead of allocating a closure per
// message.
type event struct {
	at  Time
	seq uint64
	fn  func()
	d   *delivery
}

// eventHeap is a binary min-heap of events ordered by (time, sequence). It
// stores events by value and sifts manually, so scheduling allocates nothing
// beyond occasional slice growth (no per-event box, no interface conversion).
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
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
	s[n] = event{} // release the callback and the delivery for GC
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
	now     Time
	seq     uint64
	queue   eventHeap
	stopped bool

	// Processed counts events executed so far.
	Processed uint64
}

// initialEventCap presizes the event queue so steady-state protocol bursts
// (floods, all-pairs setups) do not pay repeated heap growth.
const initialEventCap = 1024

// NewEngine returns an engine with an empty queue at time zero.
func NewEngine() *Engine {
	return &Engine{queue: make(eventHeap, 0, initialEventCap)}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at absolute time t. Scheduling in the past (before
// Now) panics: it would make the run non-causal.
func (e *Engine) At(t Time, fn func()) {
	e.schedule(event{at: t, fn: fn})
}

// schedule queues ev at ev.at behind every event already queued for that
// time.
func (e *Engine) schedule(ev event) {
	if ev.at < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", ev.at, e.now))
	}
	e.seq++
	ev.seq = e.seq
	e.queue.push(ev)
}

// After schedules fn to run d after the current time. Negative d panics.
func (e *Engine) After(d Time, fn func()) {
	e.At(e.now+d, fn)
}

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return len(e.queue) }

// Stop aborts the current Run/RunUntil loop after the in-flight event
// finishes. Further Run calls resume normally.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the queue is empty. It returns the time of the
// last executed event.
func (e *Engine) Run() Time {
	return e.RunUntil(1<<62 - 1)
}

// RunUntil executes events with timestamps <= limit, in order. It returns
// the current time when it stops (the last event time, or limit if the queue
// still holds later events).
func (e *Engine) RunUntil(limit Time) Time {
	e.stopped = false
	for len(e.queue) > 0 && !e.stopped {
		if e.queue[0].at > limit {
			e.now = limit
			return e.now
		}
		e.run(e.queue.pop())
	}
	return e.now
}

// run executes one dequeued event at its time.
func (e *Engine) run(ev event) {
	e.now = ev.at
	e.Processed++
	if ev.d != nil {
		ev.d.nw.deliver(ev.d)
	} else {
		ev.fn()
	}
}

// Step executes exactly one event if any is pending, reporting whether one
// was executed. Like RunUntil, it clears any Stop left over from a previous
// loop on entry, so a Stop issued inside an event callback never leaks into
// a later Step or Run.
func (e *Engine) Step() bool {
	e.stopped = false
	if len(e.queue) == 0 {
		return false
	}
	e.run(e.queue.pop())
	return true
}

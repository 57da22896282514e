// Package cache provides the fixed-capacity LRU map behind the capped
// policy-gateway handle tables, shard by shard. It is
// deliberately minimal: a map plus an intrusive recency list and no locking
// (callers shard and lock); Put reports each capacity eviction so owners can
// count cache pressure.
package cache

// LRU is a fixed-capacity map with least-recently-used eviction. A
// capacity <= 0 means unbounded (no eviction ever happens). The zero value
// is not usable; construct with NewLRU. LRU is not safe for concurrent
// use.
type LRU[K comparable, V any] struct {
	capacity int
	entries  map[K]*entry[K, V]
	head     *entry[K, V] // most recently used
	tail     *entry[K, V] // least recently used

	// OnEvict, if non-nil, is invoked with each entry dropped for
	// capacity (not for Delete), before Put returns.
	OnEvict func(K, V)
}

type entry[K comparable, V any] struct {
	key        K
	val        V
	prev, next *entry[K, V]
}

// NewLRU returns an empty LRU holding at most capacity entries
// (capacity <= 0 = unbounded).
func NewLRU[K comparable, V any](capacity int) *LRU[K, V] {
	return &LRU[K, V]{
		capacity: capacity,
		entries:  make(map[K]*entry[K, V]),
	}
}

// unlink removes e from the recency list.
func (l *LRU[K, V]) unlink(e *entry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// pushFront makes e the most recently used entry.
func (l *LRU[K, V]) pushFront(e *entry[K, V]) {
	e.next = l.head
	if l.head != nil {
		l.head.prev = e
	}
	l.head = e
	if l.tail == nil {
		l.tail = e
	}
}

// Get returns the value for k and promotes it to most recently used.
func (l *LRU[K, V]) Get(k K) (V, bool) {
	e, ok := l.entries[k]
	if !ok {
		var zero V
		return zero, false
	}
	if l.head != e {
		l.unlink(e)
		l.pushFront(e)
	}
	return e.val, true
}

// Peek returns the value for k without touching recency.
func (l *LRU[K, V]) Peek(k K) (V, bool) {
	e, ok := l.entries[k]
	if !ok {
		var zero V
		return zero, false
	}
	return e.val, true
}

// Put inserts or replaces the value for k, promoting it to most recently
// used, and reports whether an unrelated entry was evicted to make room.
func (l *LRU[K, V]) Put(k K, v V) (evicted bool) {
	if e, ok := l.entries[k]; ok {
		e.val = v
		if l.head != e {
			l.unlink(e)
			l.pushFront(e)
		}
		return false
	}
	e := &entry[K, V]{key: k, val: v}
	l.entries[k] = e
	l.pushFront(e)
	if l.capacity > 0 && len(l.entries) > l.capacity {
		victim := l.tail
		l.unlink(victim)
		delete(l.entries, victim.key)
		if l.OnEvict != nil {
			l.OnEvict(victim.key, victim.val)
		}
		return true
	}
	return false
}

// Delete removes k if present.
func (l *LRU[K, V]) Delete(k K) bool {
	e, ok := l.entries[k]
	if !ok {
		return false
	}
	l.unlink(e)
	delete(l.entries, k)
	return true
}

// Keys returns the live keys in recency order, most recently used first.
// The order is deterministic: it reflects only the sequence of Put/Get
// calls, never map iteration.
func (l *LRU[K, V]) Keys() []K {
	out := make([]K, 0, len(l.entries))
	for e := l.head; e != nil; e = e.next {
		out = append(out, e.key)
	}
	return out
}

// Range calls f on every live entry in recency order, most recently used
// first, until f returns false. f must not add or remove entries.
func (l *LRU[K, V]) Range(f func(K, V) bool) {
	for e := l.head; e != nil && f(e.key, e.val); e = e.next {
	}
}

// Len returns the number of live entries.
func (l *LRU[K, V]) Len() int { return len(l.entries) }

package cache

import "testing"

func TestLRUBasic(t *testing.T) {
	l := NewLRU[int, string](2)
	if _, ok := l.Get(1); ok {
		t.Fatal("empty LRU returned a value")
	}
	l.Put(1, "a")
	l.Put(2, "b")
	if v, ok := l.Get(1); !ok || v != "a" {
		t.Fatalf("Get(1) = %q,%v", v, ok)
	}
	// 1 is now most recent; inserting 3 must evict 2.
	if evicted := l.Put(3, "c"); !evicted {
		t.Fatal("Put over capacity did not evict")
	}
	if _, ok := l.Get(2); ok {
		t.Fatal("LRU kept the least-recently-used entry")
	}
	if _, ok := l.Get(1); !ok {
		t.Fatal("LRU evicted the most-recently-used entry")
	}
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
}

func TestLRUReplaceDoesNotEvict(t *testing.T) {
	l := NewLRU[int, int](2)
	l.Put(1, 10)
	l.Put(2, 20)
	if evicted := l.Put(1, 11); evicted {
		t.Fatal("replacing an existing key evicted")
	}
	if v, _ := l.Get(1); v != 11 {
		t.Fatalf("value not replaced: %d", v)
	}
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
}

func TestLRUUnbounded(t *testing.T) {
	l := NewLRU[int, int](0)
	for i := 0; i < 1000; i++ {
		if evicted := l.Put(i, i); evicted {
			t.Fatal("unbounded LRU evicted")
		}
	}
	if l.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", l.Len())
	}
}

func TestLRUPeekDoesNotPromote(t *testing.T) {
	l := NewLRU[int, int](2)
	l.Put(1, 1)
	l.Put(2, 2)
	l.Peek(1)   // must not promote
	l.Put(3, 3) // evicts 1, the true LRU
	if _, ok := l.Peek(1); ok {
		t.Fatal("Peek promoted the entry")
	}
	if _, ok := l.Peek(2); !ok {
		t.Fatal("wrong entry evicted")
	}
}

func TestLRUDelete(t *testing.T) {
	l := NewLRU[int, int](4)
	for i := 0; i < 4; i++ {
		l.Put(i, i)
	}
	if !l.Delete(2) || l.Delete(2) {
		t.Fatal("Delete semantics wrong")
	}
	if l.Len() != 3 {
		t.Fatalf("Len = %d, want 3", l.Len())
	}
	// Exercise the list after deletion: fill, evict, re-read.
	if l.Put(9, 9) {
		t.Fatal("Put into the slot Delete freed evicted")
	}
	if !l.Put(10, 10) {
		t.Fatal("Put over capacity did not evict")
	}
}

func TestLRUOrderStress(t *testing.T) {
	// Deterministic access pattern; verify the survivor set matches a
	// straightforward reference implementation.
	const capn = 8
	l := NewLRU[int, int](capn)
	var order []int // reference recency, most recent first
	touch := func(k int) {
		for i, x := range order {
			if x == k {
				order = append(order[:i], order[i+1:]...)
				break
			}
		}
		order = append([]int{k}, order...)
		if len(order) > capn {
			order = order[:capn]
		}
	}
	for i := 0; i < 200; i++ {
		k := (i * 7) % 20
		if i%3 == 0 {
			if _, ok := l.Get(k); ok {
				touch(k)
			}
		} else {
			l.Put(k, i)
			touch(k)
		}
	}
	if l.Len() != len(order) {
		t.Fatalf("Len = %d, reference = %d", l.Len(), len(order))
	}
	for _, k := range order {
		if _, ok := l.Peek(k); !ok {
			t.Fatalf("reference survivor %d missing", k)
		}
	}
}

// TestLRURange: Range visits what Keys lists, in the same recency order,
// with each key's value, and stops when its callback returns false.
func TestLRURange(t *testing.T) {
	l := NewLRU[int, int](0)
	for k := 1; k <= 5; k++ {
		l.Put(k, 10*k)
	}
	l.Get(2)
	var keys []int
	l.Range(func(k, v int) bool {
		if v != 10*k {
			t.Errorf("Range: %d -> %d, want %d", k, v, 10*k)
		}
		keys = append(keys, k)
		return true
	})
	if want := l.Keys(); len(keys) != len(want) || keys[0] != 2 || keys[1] != 5 {
		t.Fatalf("Range visited %v, Keys lists %v", keys, want)
	}
	for i, k := range l.Keys() {
		if keys[i] != k {
			t.Fatalf("Range visited %v, Keys lists %v", keys, l.Keys())
		}
	}
	n := 0
	l.Range(func(int, int) bool { n++; return n < 3 })
	if n != 3 {
		t.Errorf("Range went on for %d calls after the callback said stop at 3", n)
	}
}

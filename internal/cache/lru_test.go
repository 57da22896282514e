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
	if len(l.entries) != 2 {
		t.Fatalf("%d entries, want 2", len(l.entries))
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
	if len(l.entries) != 2 {
		t.Fatalf("%d entries, want 2", len(l.entries))
	}
}

func TestLRUUnbounded(t *testing.T) {
	l := NewLRU[int, int](0)
	for i := 0; i < 1000; i++ {
		if evicted := l.Put(i, i); evicted {
			t.Fatal("unbounded LRU evicted")
		}
	}
	if len(l.entries) != 1000 {
		t.Fatalf("%d entries, want 1000", len(l.entries))
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
	if len(l.entries) != len(order) {
		t.Fatalf("%d entries, reference holds %d", len(l.entries), len(order))
	}
	for _, k := range order {
		if _, ok := l.entries[k]; !ok {
			t.Fatalf("reference survivor %d missing", k)
		}
	}
}

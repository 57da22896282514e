package pgstate

import (
	"testing"

	"repro/internal/ad"
	"repro/internal/policy"
)

func handlesEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestHandlesCrossingIndexesBothDirections(t *testing.T) {
	tab := NewTable(Config{Kind: Hard})
	tab.Install(0, 2, ad.Path{1, 2, 3}, 0, policy.Request{Src: 1, Dst: 3}, 0)
	tab.Install(0, 1, ad.Path{1, 2, 4}, 0, policy.Request{Src: 1, Dst: 4}, 0)
	tab.Install(0, 3, ad.Path{5, 6}, 0, policy.Request{Src: 5, Dst: 6}, 0)

	// Both handles cross 1-2, queried in either direction, ascending.
	if got := tab.HandlesCrossing(1, 2); !handlesEqual(got, []uint64{1, 2}) {
		t.Fatalf("HandlesCrossing(1,2) = %v", got)
	}
	if got := tab.HandlesCrossing(2, 1); !handlesEqual(got, []uint64{1, 2}) {
		t.Fatalf("HandlesCrossing(2,1) = %v", got)
	}
	if got := tab.HandlesCrossing(2, 3); !handlesEqual(got, []uint64{2}) {
		t.Fatalf("HandlesCrossing(2,3) = %v", got)
	}
	if got := tab.HandlesCrossing(7, 8); len(got) != 0 {
		t.Fatalf("HandlesCrossing(7,8) = %v, want none", got)
	}
}

func TestHandlesCrossingTracksRemovalAndOverwrite(t *testing.T) {
	tab := NewTable(Config{Kind: Hard})
	tab.Install(0, 1, ad.Path{1, 2, 3}, 0, policy.Request{Src: 1, Dst: 3}, 0)

	// Overwriting a handle with a new route re-indexes it.
	tab.Install(0, 1, ad.Path{1, 4, 3}, 0, policy.Request{Src: 1, Dst: 3}, 0)
	if got := tab.HandlesCrossing(1, 2); len(got) != 0 {
		t.Fatalf("stale index edge after overwrite: %v", got)
	}
	if got := tab.HandlesCrossing(1, 4); !handlesEqual(got, []uint64{1}) {
		t.Fatalf("HandlesCrossing(1,4) = %v", got)
	}

	if !tab.Remove(1) {
		t.Fatal("Remove missed")
	}
	if got := tab.HandlesCrossing(1, 4); len(got) != 0 {
		t.Fatalf("stale index edge after remove: %v", got)
	}
}

func TestHandlesCrossingTracksExpiryAndEviction(t *testing.T) {
	// Soft: an expired entry swept by ExpireDue leaves the index.
	soft := NewTable(Config{Kind: Soft, TTL: 10})
	soft.Install(0, 1, ad.Path{1, 2}, 0, policy.Request{Src: 1, Dst: 2}, 0)
	if got := soft.HandlesCrossing(1, 2); !handlesEqual(got, []uint64{1}) {
		t.Fatalf("pre-expiry index = %v", got)
	}
	soft.ExpireDue(100)
	if got := soft.HandlesCrossing(1, 2); len(got) != 0 {
		t.Fatalf("expired entry still indexed: %v", got)
	}

	// Capped: a capacity eviction unindexes the evicted entry.
	capped := NewTable(Config{Kind: Capped, Capacity: 1})
	capped.Install(0, 1, ad.Path{1, 2}, 0, policy.Request{Src: 1, Dst: 2}, 0)
	capped.Install(0, 2, ad.Path{3, 4}, 0, policy.Request{Src: 3, Dst: 4}, 0)
	if got := capped.HandlesCrossing(1, 2); len(got) != 0 {
		t.Fatalf("evicted entry still indexed: %v", got)
	}
	if got := capped.HandlesCrossing(3, 4); !handlesEqual(got, []uint64{2}) {
		t.Fatalf("survivor not indexed: %v", got)
	}
}

// TestLinkBucketCompacts: removals and overwrites only count a ref dead, so
// a bucket is compacted once more than half its refs are dead; it never
// holds more than twice its live refs, and a route that crosses one link
// twice is one handle there.
func TestLinkBucketCompacts(t *testing.T) {
	tab := NewTable(Config{Kind: Hard})
	req := policy.Request{Src: 1, Dst: 3}
	for h := uint64(1); h <= 100; h++ {
		tab.Install(0, h, ad.Path{1, 2, 3}, 0, req, 0)
	}
	for h := uint64(1); h <= 90; h++ {
		if h%2 == 0 {
			tab.Remove(h)
		} else {
			tab.Install(0, h, ad.Path{1, 4, 3}, 0, req, 0) // overwrite off the link
		}
		b := tab.byLink[ad.LinkKey(1, 2)]
		if len(b.refs) > 2*b.live {
			t.Fatalf("after handle %d the bucket holds %d refs for %d live", h, len(b.refs), b.live)
		}
	}
	want := []uint64{91, 92, 93, 94, 95, 96, 97, 98, 99, 100}
	if got := tab.HandlesCrossing(2, 1); !handlesEqual(got, want) {
		t.Fatalf("HandlesCrossing(2,1) = %v, want %v", got, want)
	}
	tab.Install(0, 7, ad.Path{1, 2, 1, 2}, 0, req, 0)
	if got := tab.HandlesCrossing(1, 2); len(got) != 11 || got[0] != 7 {
		t.Fatalf("a route crossing 1-2 three times: HandlesCrossing = %v", got)
	}
	tab.Remove(7)
	if got := tab.HandlesCrossing(1, 2); !handlesEqual(got, want) {
		t.Fatalf("after removing it: HandlesCrossing = %v, want %v", got, want)
	}
}

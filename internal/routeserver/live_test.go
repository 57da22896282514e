package routeserver

import (
	"reflect"
	"testing"

	"repro/internal/policy"
	"repro/internal/synthesis"
)

// TestQueryLogRing pins the recorded-workload ring: capacity bounds it,
// recent() returns oldest-first, and a zero capacity disables recording.
func TestQueryLogRing(t *testing.T) {
	g, db, _, src, t1, t2, dst, _, _ := scopedWorld(t)
	srv := New(synthesis.NewOnDemand(g, db), Config{QueryLog: 4})
	if got := srv.RecentQueries(); got != nil {
		t.Fatalf("empty log returned %v", got)
	}
	seq := []policy.Request{
		{Src: src, Dst: dst}, {Src: src, Dst: t1}, {Src: src, Dst: t2},
		{Src: src, Dst: dst, QOS: 1}, {Src: t1, Dst: dst}, {Src: t2, Dst: dst},
	}
	for _, req := range seq {
		srv.Query(req)
	}
	want := seq[len(seq)-4:]
	if got := srv.RecentQueries(); !reflect.DeepEqual(got, want) {
		t.Fatalf("RecentQueries = %v, want last 4 oldest-first %v", got, want)
	}

	unlogged := New(synthesis.NewOnDemand(g, db), Config{})
	unlogged.Query(policy.Request{Src: src, Dst: dst})
	if got := unlogged.RecentQueries(); got != nil {
		t.Fatalf("disabled log returned %v", got)
	}
}

// TestCollectAffectedMatchesEvictScoped pins that the read-only victim
// resolution CollectAffected does for the plan engine names exactly the
// entries a real MutateScoped of the same change evicts.
func TestCollectAffectedMatchesEvictScoped(t *testing.T) {
	g, db, srv, src, t1, t2, dst, src2, iso := scopedWorld(t)
	_, _ = db, t2
	for _, req := range []policy.Request{
		{Src: src, Dst: dst}, {Src: src2, Dst: dst},
		{Src: src, Dst: t1}, {Src: src, Dst: iso},
	} {
		srv.Query(req)
	}

	ch := synthesis.LinkDownChange(t1, dst)
	perChange, live, epoch, gen, err := srv.CollectAffected(func() ([]synthesis.Change, error) {
		return []synthesis.Change{ch}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if epoch != srv.Epoch() || gen != srv.Generation() {
		t.Fatalf("snapshot at %d/%d, server at %d/%d", epoch, gen, srv.Epoch(), srv.Generation())
	}
	if live != srv.CacheLen() {
		t.Fatalf("live = %d, cache holds %d", live, srv.CacheLen())
	}

	evicted, retained := srv.MutateScoped(ch, func() { g.RemoveLink(t1, dst) })
	if evicted != len(perChange[0]) {
		t.Errorf("MutateScoped evicted %d, CollectAffected predicted %d", evicted, len(perChange[0]))
	}
	if retained != live-len(perChange[0]) {
		t.Errorf("MutateScoped retained %d, predicted %d", retained, live-len(perChange[0]))
	}
	after := make(map[Key]bool)
	for _, e := range srv.DumpEntries(nil) {
		after[e.Key] = true
	}
	for _, e := range perChange[0] {
		if after[e.Key] {
			t.Errorf("predicted victim %+v survived", e.Key)
		}
	}
}

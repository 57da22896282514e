package synthesis

import (
	"strings"
	"testing"

	"repro/internal/ad"
	"repro/internal/policy"
)

// TestPrunedPrecomputesConfiguredClasses is the regression test for the
// class-blind precompute bug: the table was built only for (QOS 0, UCI 0),
// so any workload with QOSClasses/UCIClasses > 0 could never hit it (the
// cache key includes both classes).
func TestPrunedPrecomputesConfiguredClasses(t *testing.T) {
	g, s, _, _, d := diamond(t)
	db := policy.OpenDB(g)
	st := NewPrunedConfig(g, db, []ad.ID{s}, PrunedConfig{
		HopRadius: 3, QOSClasses: 2, UCIClasses: 2,
	})
	for qos := 0; qos < 2; qos++ {
		for uci := 0; uci < 2; uci++ {
			req := policy.Request{Src: s, Dst: d, Hour: 12,
				QOS: policy.QOS(qos), UCI: policy.UCI(uci)}
			if _, ok := st.Route(req); !ok {
				t.Fatalf("no route for %v", req)
			}
		}
	}
	stats := st.Stats()
	if stats.Misses != 0 {
		t.Fatalf("class-spread requests missed the precomputed table: %+v", stats)
	}
	if stats.Hits != 4 {
		t.Fatalf("Hits = %d, want 4", stats.Hits)
	}

	// The default constructor precomputes class 0 only; a class-1 request
	// must take the on-demand path (documenting the narrower semantics).
	def := NewPruned(g, db, []ad.ID{s}, 3)
	if _, ok := def.Route(policy.Request{Src: s, Dst: d, QOS: 1, Hour: 12}); !ok {
		t.Fatal("no on-demand route")
	}
	if got := def.Stats(); got.Misses != 1 {
		t.Fatalf("default-class strategy should miss on QOS 1: %+v", got)
	}
}

// TestInvalidatePreservesStats pins the copy-forward semantics of
// Strategy.Invalidate for all four strategies: cumulative counters (hits,
// misses, failures, expansion work) survive an invalidation;
// only the table state is rebuilt.
func TestInvalidatePreservesStats(t *testing.T) {
	g, s, _, _, d := diamond(t)
	db := policy.OpenDB(g)
	hot := []policy.Request{{Src: s, Dst: d, Hour: 12}}
	workload := []policy.Request{
		{Src: s, Dst: d, Hour: 12},
		{Src: d, Dst: s, Hour: 12},
		{Src: s, Dst: d, QOS: 1, Hour: 12},
		{Src: ad.ID(999), Dst: d, Hour: 12}, // unroutable: source not in graph
	}
	build := map[string]func() Strategy{
		"on-demand":   func() Strategy { return NewOnDemand(g, db) },
		"precomputed": func() Strategy { return NewPrecomputed(g, db, hot) },
		"hybrid":      func() Strategy { return NewHybrid(g, db, hot) },
		"pruned":      func() Strategy { return NewPruned(g, db, []ad.ID{s, d}, 2) },
	}
	for name, mk := range build {
		t.Run(name, func(t *testing.T) {
			st := mk()
			for _, r := range workload {
				st.Route(r)
			}
			before := st.Stats()
			if before.Hits+before.Misses != len(workload) {
				t.Fatalf("accounting broken before invalidation: %+v", before)
			}
			st.Invalidate()
			after := st.Stats()
			if after.Hits != before.Hits || after.Misses != before.Misses ||
				after.Failures != before.Failures {
				t.Fatalf("request counters not preserved:\nbefore %+v\nafter  %+v", before, after)
			}
			if after.OnDemandExpansions != before.OnDemandExpansions {
				t.Fatalf("on-demand work not preserved:\nbefore %+v\nafter  %+v", before, after)
			}
			if after.PrecomputeExpansions < before.PrecomputeExpansions {
				t.Fatalf("precompute work went backwards:\nbefore %+v\nafter  %+v", before, after)
			}
			// The strategy must keep serving and accumulating afterwards.
			if _, ok := st.Route(policy.Request{Src: s, Dst: d, Hour: 12}); !ok {
				t.Fatal("strategy cannot serve after Invalidate")
			}
			final := st.Stats()
			if final.Hits+final.Misses != after.Hits+after.Misses+1 {
				t.Fatalf("counters stopped accumulating after Invalidate: %+v", final)
			}
		})
	}
}

// TestUnannouncedMutationIsLoud: the read plane searches the snapshot taken
// at the last write-plane call. A graph or policy mutation nobody announced
// would make that a silently wrong answer, so Route refuses — on every
// strategy, table hit or miss, wrapped in a Memo or not — until Invalidate.
func TestUnannouncedMutationIsLoud(t *testing.T) {
	g, s, t1, _, d := diamond(t)
	db := policy.OpenDB(g)
	req := policy.Request{Src: s, Dst: d, Hour: 12}
	routePanics := func(st Strategy) (msg any) {
		defer func() { msg = recover() }()
		st.Route(req)
		return nil
	}
	for _, build := range []func() Strategy{
		func() Strategy { return NewOnDemand(g, db) },
		func() Strategy { return NewPrecomputed(g, db, []policy.Request{req}) },
		func() Strategy { return NewMemo(NewHybrid(g, db, nil)) },
	} {
		st := build()
		if msg := routePanics(st); msg != nil {
			t.Fatalf("%s: fresh strategy refused: %v", st.Name(), msg)
		}
		for name, mutate := range map[string]func(){
			"graph":  func() { g.RemoveLink(s, t1); _ = g.AddLink(ad.Link{A: s, B: t1, Cost: 1}) },
			"policy": func() { db.SetCriteria(s, policy.Criteria{}) },
		} {
			mutate()
			msg, _ := routePanics(st).(string)
			if !strings.Contains(msg, "graph/policy mutated without Invalidate") {
				t.Errorf("%s: Route after an unannounced %s mutation: panic %q, want the staleness refusal", st.Name(), name, msg)
			}
			st.Invalidate()
			if msg := routePanics(st); msg != nil {
				t.Errorf("%s: still refusing after Invalidate: %v", st.Name(), msg)
			}
		}
	}
}

package synthesis

import (
	"testing"

	"repro/internal/ad"
	"repro/internal/policy"
	"repro/internal/topology"
	"repro/internal/trafficgen"
)

// scopedWorld builds one independent (graph, db, strategy) triple per call
// so a scoped copy and a full-invalidation oracle copy can mutate in step
// without sharing state.
func scopedWorld(t *testing.T, kind string, workload []policy.Request) (*ad.Graph, *policy.DB, Strategy) {
	t.Helper()
	topo := topology.Generate(topology.Config{
		Seed: 9, Backbones: 2, RegionalsPerBackbone: 2,
		CampusesPerParent: 2, LateralProb: 0.3, BypassProb: 0.1,
	})
	g := topo.Graph
	db := policy.OpenDB(g)
	var st Strategy
	switch kind {
	case "on-demand":
		st = NewOnDemand(g, db)
	case "precomputed":
		st = NewPrecomputed(g, db, workload)
	case "pruned":
		var stubs []ad.ID
		for _, info := range g.ADs() {
			if info.Class == ad.Stub || info.Class == ad.MultihomedStub {
				stubs = append(stubs, info.ID)
			}
		}
		st = NewPruned(g, db, stubs, 6)
	case "hybrid":
		st = NewHybrid(g, db, workload[:5])
	default:
		t.Fatalf("unknown kind %q", kind)
	}
	return g, db, st
}

func scopedWorkload(t *testing.T) []policy.Request {
	t.Helper()
	topo := topology.Generate(topology.Config{
		Seed: 9, Backbones: 2, RegionalsPerBackbone: 2,
		CampusesPerParent: 2, LateralProb: 0.3, BypassProb: 0.1,
	})
	return trafficgen.Generate(topo.Graph, trafficgen.Config{
		Seed: 10, Requests: 60, StubsOnly: true, Model: "uniform",
	})
}

var scopedKinds = []string{"on-demand", "precomputed", "pruned", "hybrid"}

// TestInvalidateScopedNarrowingMatchesFull: for changes that only remove
// routes (link failure, term removal), scoped invalidation must serve the
// exact same answers as a full rebuild — unaffected entries were optimal
// and stay optimal, affected ones are recomputed.
func TestInvalidateScopedNarrowingMatchesFull(t *testing.T) {
	workload := scopedWorkload(t)
	for _, kind := range scopedKinds {
		t.Run(kind, func(t *testing.T) {
			gS, dbS, scoped := scopedWorld(t, kind, workload)
			gF, dbF, full := scopedWorld(t, kind, workload)
			for _, req := range workload {
				scoped.Route(req)
				full.Route(req)
			}

			// Narrowing 1: a link failure.
			var lat ad.Link
			for _, l := range gS.Links() {
				if l.Class == ad.Lateral {
					lat = l
					break
				}
			}
			if lat.A == 0 {
				lat = gS.Links()[0]
			}
			gS.RemoveLink(lat.A, lat.B)
			gF.RemoveLink(lat.A, lat.B)
			scoped.InvalidateScoped(LinkDownChange(lat.A, lat.B))
			full.Invalidate()
			compareStrategies(t, "link-down", scoped, full, workload)

			// Narrowing 2: drop a transit AD's terms entirely.
			target := transitWithTerms(t, gS, dbS)
			deltaS := dbS.SetTerms(target, nil)
			dbF.SetTerms(target, nil)
			if deltaS.Broadens || len(deltaS.Removed) == 0 {
				t.Fatalf("dropping terms is not a pure narrowing: %+v", deltaS)
			}
			scoped.InvalidateScoped(PolicyChangeOf(deltaS))
			full.Invalidate()
			compareStrategies(t, "policy-narrow", scoped, full, workload)
		})
	}
}

// TestInvalidateScopedBroadeningStaysLegal: for changes that can create
// routes (link restoration), scoped invalidation retains legal-but-maybe-
// suboptimal positives and must still find a route wherever the full oracle
// does (negatives are dropped).
func TestInvalidateScopedBroadeningStaysLegal(t *testing.T) {
	workload := scopedWorkload(t)
	for _, kind := range scopedKinds {
		t.Run(kind, func(t *testing.T) {
			gS, dbS, scoped := scopedWorld(t, kind, workload)

			var lat ad.Link
			for _, l := range gS.Links() {
				if l.Class == ad.Lateral {
					lat = l
					break
				}
			}
			if lat.A == 0 {
				lat = gS.Links()[0]
			}
			// Fail the link, settle on the degraded world, then restore.
			gS.RemoveLink(lat.A, lat.B)
			scoped.InvalidateScoped(LinkDownChange(lat.A, lat.B))
			for _, req := range workload {
				scoped.Route(req)
			}
			if err := gS.AddLink(lat); err != nil {
				t.Fatal(err)
			}
			scoped.InvalidateScoped(LinkUpChange(lat.A, lat.B))

			for _, req := range workload {
				path, found := scoped.Route(req)
				exists := Compile(gS, dbS).RouteExists(req)
				if found != exists {
					t.Fatalf("req %v: found = %v, route exists = %v", req, found, exists)
				}
				if found && (!path.Valid(gS) || !dbS.PathLegal(path, req)) {
					t.Fatalf("req %v: retained route %v is illegal after restore", req, path)
				}
			}
		})
	}
}

func compareStrategies(t *testing.T, stage string, scoped, full Strategy, workload []policy.Request) {
	t.Helper()
	for _, req := range workload {
		pS, okS := scoped.Route(req)
		pF, okF := full.Route(req)
		if okS != okF || (okS && !pS.Equal(pF)) {
			t.Fatalf("%s: req %v: scoped (%v,%v) != full (%v,%v)",
				stage, req, pS, okS, pF, okF)
		}
	}
}

func transitWithTerms(t *testing.T, g *ad.Graph, db *policy.DB) ad.ID {
	t.Helper()
	for _, info := range g.ADs() {
		if info.Class == ad.Transit && len(db.Terms(info.ID)) > 0 {
			return info.ID
		}
	}
	t.Fatal("no transit AD with terms")
	return 0
}

// TestInvalidateScopedFullChangeEqualsInvalidate pins the fallback: a
// zero-value Change through InvalidateScoped must behave exactly like
// Invalidate (fresh recompute, optimal answers).
func TestInvalidateScopedFullChangeEqualsInvalidate(t *testing.T) {
	workload := scopedWorkload(t)
	for _, kind := range scopedKinds {
		t.Run(kind, func(t *testing.T) {
			gS, _, scoped := scopedWorld(t, kind, workload)
			gF, _, full := scopedWorld(t, kind, workload)
			for _, req := range workload {
				scoped.Route(req)
				full.Route(req)
			}
			l := gS.Links()[0]
			gS.RemoveLink(l.A, l.B)
			gF.RemoveLink(l.A, l.B)
			scoped.InvalidateScoped(FullChange())
			full.Invalidate()
			compareStrategies(t, "full-fallback", scoped, full, workload)
		})
	}
}

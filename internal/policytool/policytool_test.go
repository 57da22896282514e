package policytool

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/ad"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/synthesis"
	"repro/internal/topology"
	"repro/internal/wire"
)

// assess runs Assess on one policy step replacing id's terms.
func assess(t *testing.T, g *ad.Graph, db *policy.DB, id ad.ID, terms []policy.Term, reqs []policy.Request) Impact {
	t.Helper()
	im, err := Assess(synthesis.NewWorld(g, db), []wire.PlanStep{{Op: wire.CtlPolicy, A: id, Terms: terms}}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// diamondNet: src -- {t1 cheap, t2 dear} -- d.
func diamondNet(t *testing.T) (*ad.Graph, ad.ID, ad.ID, ad.ID, ad.ID) {
	t.Helper()
	g := ad.NewGraph()
	src := g.AddAD("src", ad.Stub, ad.Campus)
	t1 := g.AddAD("t1", ad.Transit, ad.Regional)
	t2 := g.AddAD("t2", ad.Transit, ad.Regional)
	d := g.AddAD("d", ad.Stub, ad.Campus)
	for _, l := range []ad.Link{
		{A: src, B: t1, Cost: 1}, {A: t1, B: d, Cost: 1},
		{A: src, B: t2, Cost: 5}, {A: t2, B: d, Cost: 5},
	} {
		if err := g.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	return g, src, t1, t2, d
}

func TestAssessRestrictionShedsTransit(t *testing.T) {
	g, src, t1, t2, d := diamondNet(t)
	db := policy.NewDB()
	db.Add(policy.OpenTerm(t1, 0))
	db.Add(policy.OpenTerm(t2, 0))
	reqs := []policy.Request{{Src: src, Dst: d}, {Src: d, Dst: src}}

	// t1 closes to everyone except d's own traffic sourced at d.
	restricted := policy.OpenTerm(t1, 0)
	restricted.Sources = policy.SetOf(d)
	im := assess(t, g, db, t1, []policy.Term{restricted}, reqs)

	if im.TransitBefore != 2 {
		t.Errorf("TransitBefore = %d, want 2 (both directions via cheap t1)", im.TransitBefore)
	}
	if im.TransitAfter != 1 {
		t.Errorf("TransitAfter = %d, want 1 (only d->src still permitted)", im.TransitAfter)
	}
	// Connectivity survives via t2: nothing lost, one pair rerouted.
	if len(im.Lost) != 0 || len(im.Gained) != 0 {
		t.Errorf("lost=%d gained=%d, want 0/0", len(im.Lost), len(im.Gained))
	}
	if len(im.Rerouted) != 1 {
		t.Fatalf("rerouted = %d, want 1", len(im.Rerouted))
	}
	if !im.Rerouted[0].After.Contains(t2) {
		t.Errorf("rerouted path %v should use t2", im.Rerouted[0].After)
	}
}

func TestAssessClosureLosesConnectivity(t *testing.T) {
	g, src, t1, _, d := diamondNet(t)
	// Only t1 has terms; t2 is closed from the start.
	db := policy.NewDB()
	db.Add(policy.OpenTerm(t1, 0))
	reqs := []policy.Request{{Src: src, Dst: d}}

	im := assess(t, g, db, t1, nil, reqs) // withdraw all terms
	if len(im.Lost) != 1 {
		t.Fatalf("lost = %d, want 1", len(im.Lost))
	}
	if len(im.Gained) != 0 {
		t.Errorf("gained = %d, want 0", len(im.Gained))
	}
	if im.TermsBefore != 1 || im.TermsAfter != 0 {
		t.Errorf("terms %d -> %d", im.TermsBefore, im.TermsAfter)
	}
}

func TestAssessRelaxationGainsConnectivity(t *testing.T) {
	g, src, t1, t2, d := diamondNet(t)
	db := policy.NewDB() // no transit at all
	_ = t2
	reqs := []policy.Request{{Src: src, Dst: d}, {Src: d, Dst: src}}
	im := assess(t, g, db, t1, []policy.Term{policy.OpenTerm(t1, 0)}, reqs)
	if len(im.Gained) != 2 {
		t.Fatalf("gained = %d, want 2", len(im.Gained))
	}
	if len(im.Lost) != 0 {
		t.Errorf("lost = %d, want 0", len(im.Lost))
	}
}

func TestAssessDoesNotMutateInput(t *testing.T) {
	g, src, t1, _, d := diamondNet(t)
	db := policy.NewDB()
	db.Add(policy.OpenTerm(t1, 0))
	before := db.NumTerms()
	assess(t, g, db, t1, nil, []policy.Request{{Src: src, Dst: d}})
	if db.NumTerms() != before {
		t.Error("Assess mutated the input database")
	}
	if !db.PathLegal(ad.Path{src, t1, d}, policy.Request{Src: src, Dst: d}) {
		t.Error("original database semantics changed")
	}
}

func TestReportRendering(t *testing.T) {
	g, src, t1, _, d := diamondNet(t)
	db := policy.NewDB()
	db.Add(policy.OpenTerm(t1, 0))
	im := assess(t, g, db, t1, nil, []policy.Request{{Src: src, Dst: d}})
	var buf bytes.Buffer
	if err := im.Report(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"policy impact assessment", "transit load", "lost", "loses"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestReportTruncation(t *testing.T) {
	// More than 10 lost pairs must truncate with an "and N more" line.
	topo := topology.Generate(topology.Config{Seed: 5, Backbones: 1, RegionalsPerBackbone: 1, CampusesPerParent: 8})
	g := topo.Graph
	db := policy.OpenDB(g)
	var regional ad.ID
	for _, info := range g.ADs() {
		if info.Level == ad.Regional {
			regional = info.ID
		}
	}
	reqs := core.AllPairsRequests(g, true, 0, 0)
	im := assess(t, g, db, regional, nil, reqs)
	if len(im.Lost) <= 10 {
		t.Fatalf("scenario produced only %d losses; need > 10", len(im.Lost))
	}
	var buf bytes.Buffer
	if err := im.Report(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "more") {
		t.Error("report not truncated")
	}
}

func TestAssessOnGeneratedInternet(t *testing.T) {
	topo := topology.Generate(topology.Config{Seed: 9, LateralProb: 0.3})
	g := topo.Graph
	db := policy.OpenDB(g)
	reqs := core.AllPairsRequests(g, true, 0, 0)
	// Closing a regional with redundancy mostly reroutes; closing a
	// bridge loses pairs. Either way the accounting must balance.
	for _, info := range g.ADs() {
		if info.Class != ad.Transit {
			continue
		}
		im := assess(t, g, db, info.ID, nil, reqs)
		if len(im.Gained) != 0 {
			t.Errorf("closing %v gained %d pairs", info.ID, len(im.Gained))
		}
		if im.TransitAfter != 0 {
			t.Errorf("closing %v left transit load %d", info.ID, im.TransitAfter)
		}
	}
}

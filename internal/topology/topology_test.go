package topology

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/ad"
)

func TestGenerateDefaultsConnected(t *testing.T) {
	topo := Generate(Config{Seed: 1})
	s := ComputeStats(topo.Graph)
	if !s.Connected {
		t.Fatal("default topology not connected")
	}
	// 2 backbones + 4 regionals + 12 campuses.
	if s.ADs != 18 {
		t.Errorf("ADs = %d, want 18", s.ADs)
	}
	if s.ByLevel[ad.Backbone] != 2 || s.ByLevel[ad.Regional] != 4 || s.ByLevel[ad.Campus] != 12 {
		t.Errorf("level counts = %v", s.ByLevel)
	}
	if s.ByLevel[ad.Metro] != 0 {
		t.Errorf("unexpected metro ADs: %d", s.ByLevel[ad.Metro])
	}
}

func TestGenerateDeterminism(t *testing.T) {
	cfg := Config{Seed: 42, LateralProb: 0.3, BypassProb: 0.2, MultihomedProb: 0.2, HybridProb: 0.3}
	a := Generate(cfg)
	b := Generate(cfg)
	la, lb := a.Graph.Links(), b.Graph.Links()
	if len(la) != len(lb) {
		t.Fatalf("link counts differ: %d vs %d", len(la), len(lb))
	}
	for i := range la {
		if la[i] != lb[i] {
			t.Errorf("link %d differs: %+v vs %+v", i, la[i], lb[i])
		}
	}
	for _, ia := range a.Graph.ADs() {
		ib, ok := b.Graph.AD(ia.ID)
		if !ok || ia != ib {
			t.Errorf("AD %v differs: %+v vs %+v", ia.ID, ia, ib)
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	cfg := Config{LateralProb: 0.4, BypassProb: 0.3}
	a := Generate(Config{Seed: 1, LateralProb: cfg.LateralProb, BypassProb: cfg.BypassProb})
	b := Generate(Config{Seed: 2, LateralProb: cfg.LateralProb, BypassProb: cfg.BypassProb})
	if a.Graph.NumLinks() == b.Graph.NumLinks() {
		// Same count is possible but identical link sets are unlikely;
		// compare the sorted link lists.
		la, lb := a.Graph.Links(), b.Graph.Links()
		same := true
		for i := range la {
			if la[i] != lb[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical topologies")
		}
	}
}

func TestGenerateMetroLevel(t *testing.T) {
	topo := Generate(Config{Seed: 3, Backbones: 1, RegionalsPerBackbone: 2, MetrosPerRegional: 2, CampusesPerParent: 2})
	s := ComputeStats(topo.Graph)
	if s.ByLevel[ad.Metro] != 4 {
		t.Errorf("metros = %d, want 4", s.ByLevel[ad.Metro])
	}
	if s.ByLevel[ad.Campus] != 8 {
		t.Errorf("campuses = %d, want 8", s.ByLevel[ad.Campus])
	}
	if !s.Connected {
		t.Error("metro topology not connected")
	}
	// Every campus parent must be a metro.
	for _, c := range topo.ByLevel[ad.Campus] {
		p := topo.Parent[c]
		info, _ := topo.Graph.AD(p)
		if info.Level != ad.Metro {
			t.Errorf("campus %v parented to %v (%v), want metro", c, p, info.Level)
		}
	}
}

func TestGenerateMultihomed(t *testing.T) {
	topo := Generate(Config{Seed: 5, MultihomedProb: 1})
	found := 0
	for _, info := range topo.Graph.ADs() {
		if info.Class == ad.MultihomedStub {
			found++
			if topo.Graph.Degree(info.ID) < 2 {
				t.Errorf("multihomed stub %v has degree %d", info.ID, topo.Graph.Degree(info.ID))
			}
		}
	}
	if found == 0 {
		t.Error("MultihomedProb=1 produced no multihomed stubs")
	}
}

func TestGenerateBypass(t *testing.T) {
	topo := Generate(Config{Seed: 6, BypassProb: 1})
	s := ComputeStats(topo.Graph)
	if s.ByLinkClass[ad.Bypass] == 0 {
		t.Error("BypassProb=1 produced no bypass links")
	}
	// Bypass links must terminate on a backbone.
	for _, l := range topo.Graph.Links() {
		if l.Class != ad.Bypass {
			continue
		}
		ia, _ := topo.Graph.AD(l.A)
		ib, _ := topo.Graph.AD(l.B)
		if ia.Level != ad.Backbone && ib.Level != ad.Backbone {
			t.Errorf("bypass link %v-%v touches no backbone", l.A, l.B)
		}
	}
}

func TestGenerateHybrid(t *testing.T) {
	topo := Generate(Config{Seed: 7, HybridProb: 1})
	s := ComputeStats(topo.Graph)
	if s.ByClass[ad.Hybrid] == 0 {
		t.Error("HybridProb=1 produced no hybrid ADs")
	}
	// Backbones are never hybrid.
	for _, bb := range topo.ByLevel[ad.Backbone] {
		info, _ := topo.Graph.AD(bb)
		if info.Class != ad.Transit {
			t.Errorf("backbone %v class = %v, want transit", bb, info.Class)
		}
	}
}

func TestGenerateScalesUp(t *testing.T) {
	topo := Generate(Config{Seed: 8, Backbones: 4, RegionalsPerBackbone: 4, MetrosPerRegional: 2, CampusesPerParent: 4, LateralProb: 0.1, BypassProb: 0.05, BackboneChords: 2})
	s := ComputeStats(topo.Graph)
	want := 4 + 16 + 32 + 128
	if s.ADs != want {
		t.Errorf("ADs = %d, want %d", s.ADs, want)
	}
	if !s.Connected {
		t.Error("large topology not connected")
	}
	if s.MinDegree < 1 {
		t.Error("isolated AD generated")
	}
}

func TestFigure1Invariants(t *testing.T) {
	topo := Figure1()
	g := topo.Graph
	s := ComputeStats(g)
	if !s.Connected {
		t.Fatal("Figure 1 not connected")
	}
	if s.Tree {
		t.Error("Figure 1 must contain cycles (lateral/bypass links)")
	}
	if s.ByLevel[ad.Backbone] != 2 {
		t.Errorf("backbones = %d, want 2", s.ByLevel[ad.Backbone])
	}
	if s.ByLevel[ad.Regional] != 3 {
		t.Errorf("regionals = %d, want 3", s.ByLevel[ad.Regional])
	}
	if s.ByLevel[ad.Campus] != 5 {
		t.Errorf("campuses = %d, want 5", s.ByLevel[ad.Campus])
	}
	// The figure legend requires all three link classes present.
	if s.ByLinkClass[ad.Lateral] != 2 {
		t.Errorf("lateral links = %d, want 2", s.ByLinkClass[ad.Lateral])
	}
	if s.ByLinkClass[ad.Bypass] != 1 {
		t.Errorf("bypass links = %d, want 1", s.ByLinkClass[ad.Bypass])
	}
	if s.ByClass[ad.MultihomedStub] != 1 {
		t.Errorf("multihomed stubs = %d, want 1", s.ByClass[ad.MultihomedStub])
	}
	if s.MultihomedWithTwoPlus != 1 {
		t.Error("multihomed stub lacks two connections")
	}
	// Determinism: building twice gives identical graphs.
	g2 := Figure1().Graph
	la, lb := g.Links(), g2.Links()
	for i := range la {
		if la[i] != lb[i] {
			t.Errorf("Figure1 nondeterministic at link %d", i)
		}
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	s := ComputeStats(ad.NewGraph())
	if s.ADs != 0 || s.Links != 0 || s.MinDegree != 0 {
		t.Errorf("empty stats = %+v", s)
	}
}

func TestWriteDOT(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteDOT(&buf, Figure1().Graph); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "graph internet {") || !strings.HasSuffix(strings.TrimSpace(out), "}") {
		t.Error("DOT output not well-formed")
	}
	if !strings.Contains(out, "style=dotted") {
		t.Error("lateral links not rendered dotted")
	}
	if !strings.Contains(out, "style=dashed") {
		t.Error("bypass links not rendered dashed")
	}
	if !strings.Contains(out, "backbone-east") {
		t.Error("AD names missing from DOT")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := Figure1().Graph
	var buf bytes.Buffer
	if err := WriteJSON(&buf, g); err != nil {
		t.Fatal(err)
	}
	if err := matchesJSON(g, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
}

// matchesJSON decodes WriteJSON's output and reports the first AD or link
// it does not describe exactly as g holds it, in g's order.
func matchesJSON(g *ad.Graph, b []byte) error {
	var jt jsonTopology
	if err := json.Unmarshal(b, &jt); err != nil {
		return err
	}
	if len(jt.ADs) != g.NumADs() || len(jt.Links) != g.NumLinks() {
		return fmt.Errorf("size mismatch: %d/%d vs %d/%d", len(jt.ADs), len(jt.Links), g.NumADs(), g.NumLinks())
	}
	for i, info := range g.ADs() {
		want := jsonAD{ID: uint32(info.ID), Name: info.Name, Class: info.Class.String(), Level: info.Level.String()}
		if jt.ADs[i] != want {
			return fmt.Errorf("AD %d: %+v, want %+v", i, jt.ADs[i], want)
		}
	}
	for i, l := range g.Links() {
		want := jsonLink{A: uint32(l.A), B: uint32(l.B), Class: l.Class.String(), DelayMicros: l.DelayMicros, BandwidthBps: l.BandwidthBps, Cost: l.Cost}
		if jt.Links[i] != want {
			return fmt.Errorf("link %d: %+v, want %+v", i, jt.Links[i], want)
		}
	}
	return nil
}

func TestConfigNormalize(t *testing.T) {
	c := Config{LateralProb: -1, BypassProb: 7}.Normalize()
	if c.LateralProb != 0 || c.BypassProb != 1 {
		t.Errorf("probs not clamped: %+v", c)
	}
	if c.Backbones != 2 || c.RegionalsPerBackbone != 2 || c.CampusesPerParent != 3 {
		t.Errorf("defaults wrong: %+v", c)
	}
}

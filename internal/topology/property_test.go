package topology

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/ad"
)

// TestPropertyGeneratorInvariants sweeps many random configurations and
// validates the structural invariants of the paper's topology model.
func TestPropertyGeneratorInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 60; trial++ {
		cfg := Config{
			Seed:                 int64(trial),
			Backbones:            1 + rng.Intn(4),
			RegionalsPerBackbone: 1 + rng.Intn(4),
			MetrosPerRegional:    rng.Intn(3),
			CampusesPerParent:    1 + rng.Intn(4),
			LateralProb:          rng.Float64() * 0.6,
			BypassProb:           rng.Float64() * 0.4,
			MultihomedProb:       rng.Float64() * 0.4,
			HybridProb:           rng.Float64() * 0.5,
			BackboneChords:       rng.Intn(3),
		}
		topo := Generate(cfg)
		g := topo.Graph
		s := ComputeStats(g)
		if !s.Connected {
			t.Fatalf("trial %d: disconnected topology (%+v)", trial, cfg)
		}
		if s.MinDegree < 1 {
			t.Fatalf("trial %d: isolated AD", trial)
		}
		for _, info := range g.ADs() {
			switch info.Level {
			case ad.Backbone:
				// Backbones are always full transit.
				if info.Class != ad.Transit {
					t.Fatalf("trial %d: backbone %v class %v", trial, info.ID, info.Class)
				}
			case ad.Campus:
				// Campuses are stubs (possibly multi-homed).
				if info.Class != ad.Stub && info.Class != ad.MultihomedStub {
					t.Fatalf("trial %d: campus %v class %v", trial, info.ID, info.Class)
				}
				if info.Class == ad.MultihomedStub && g.Degree(info.ID) < 2 {
					t.Fatalf("trial %d: multihomed %v degree %d", trial, info.ID, g.Degree(info.ID))
				}
			default:
				// Regionals/metros are transit or hybrid.
				if info.Class != ad.Transit && info.Class != ad.Hybrid {
					t.Fatalf("trial %d: %v level %v class %v", trial, info.ID, info.Level, info.Class)
				}
			}
			// Every non-backbone AD has a hierarchy parent one level up
			// (or recorded in Parent for multi-homed second links).
			if info.Level != ad.Backbone {
				parent, ok := topo.Parent[info.ID]
				if !ok {
					t.Fatalf("trial %d: %v has no parent", trial, info.ID)
				}
				if !g.HasLink(info.ID, parent) {
					t.Fatalf("trial %d: %v not linked to parent %v", trial, info.ID, parent)
				}
			}
		}
		// Link class sanity: hierarchical links connect adjacent levels
		// (or two backbones); bypass links touch a backbone.
		for _, l := range g.Links() {
			ia, _ := g.AD(l.A)
			ib, _ := g.AD(l.B)
			switch l.Class {
			case ad.Bypass:
				if ia.Level != ad.Backbone && ib.Level != ad.Backbone {
					t.Fatalf("trial %d: bypass %v-%v touches no backbone", trial, l.A, l.B)
				}
			case ad.Lateral:
				if ia.Level != ib.Level {
					t.Fatalf("trial %d: lateral %v-%v across levels %v/%v", trial, l.A, l.B, ia.Level, ib.Level)
				}
			}
			if l.DelayMicros <= 0 {
				t.Fatalf("trial %d: non-positive delay on %v-%v", trial, l.A, l.B)
			}
			if l.Cost == 0 {
				t.Fatalf("trial %d: zero cost on %v-%v", trial, l.A, l.B)
			}
		}
	}
}

// TestPropertyJSONRoundTripRandom checks WriteJSON on random generated topologies.
func TestPropertyJSONRoundTripRandom(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		topo := Generate(Config{
			Seed:           int64(trial * 3),
			LateralProb:    0.3,
			BypassProb:     0.2,
			MultihomedProb: 0.2,
			HybridProb:     0.3,
		})
		g := topo.Graph
		var buf bytes.Buffer
		if err := WriteJSON(&buf, g); err != nil {
			t.Fatal(err)
		}
		if err := matchesJSON(g, buf.Bytes()); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

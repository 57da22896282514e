package protocols

import (
	"testing"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/topology"
)

func TestLookup(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range Designs {
		if seen[d.Name] {
			t.Errorf("design %q listed twice", d.Name)
		}
		seen[d.Name] = true
		if got := Lookup(d.Name); got == nil || got.Name != d.Name {
			t.Errorf("Lookup(%q) = %v", d.Name, got)
		}
	}
	for _, name := range []string{"", "all", "ls-hop-by-hop", "ORWG"} {
		if got := Lookup(name); got != nil {
			t.Errorf("Lookup(%q) = %q, want nil", name, got.Name)
		}
	}
}

// TestEveryDesignConvergesOnFigure1: under an open database every design
// builds, converges to quiescence, and delivers at least one stub pair.
func TestEveryDesignConvergesOnFigure1(t *testing.T) {
	g := topology.Figure1().Graph
	db := policy.OpenDB(g)
	oracle := core.NewOracle(g, db)
	reqs := core.AllPairsRequests(g, true, 0, 0)
	for _, d := range Designs {
		t.Run(d.Name, func(t *testing.T) {
			m := core.RunScenario(d.New(g, db), oracle, reqs, 600*sim.Second)
			if !m.Quiesced {
				t.Error("did not quiesce")
			}
			if m.DeliveredLegal == 0 {
				t.Errorf("delivered nothing legally: %v", m)
			}
		})
	}
}

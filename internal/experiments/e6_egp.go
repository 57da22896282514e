package experiments

import (
	"fmt"

	"repro/internal/ad"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/protocols/egp"
	"repro/internal/topology"
)

// E6EGPTopologyRestriction quantifies §3's criticism of EGP. Initial
// convergence is correct on any topology (reachability propagates
// breadth-first), but EGP has no loop-robust route computation: after a
// link failure a gateway falls back to any neighbor that ever advertised
// the destination — possibly one whose reachability was derived from the
// gateway itself — and the resulting forwarding loop is never detected.
//
// The experiment sweeps every possible single-link failure on a tree
// topology and on the paper's cyclic topology (lateral + bypass links) and
// counts how many failures leave persistent loops, how many pairs loop, and
// how many deliveries are lost. Every failure is simulated on a fresh
// system, independently, and runs on every core.
func E6EGPTopologyRestriction(seed int64) *metrics.Table {
	return e6Rows(seed).run(0)
}

// e6Rows makes one task per topology × mode × failed link, plus one per
// topology for its initial row, the mesh (more links, more pairs) first.
// Every task builds its EGP system on its own clone of the topology's graph,
// which is otherwise only read.
func e6Rows(seed int64) rows {
	treeTopo := topology.Generate(topology.Config{Seed: seed})
	if !treeTopo.Graph.IsTree() {
		panic("experiments: default hierarchy is not a tree")
	}
	topos := []struct {
		name string
		g    *ad.Graph
	}{
		{"tree", treeTopo.Graph},
		{"mesh", topology.Generate(topology.Config{Seed: seed, LateralProb: 0.4, BypassProb: 0.2}).Graph},
	}
	// Both deployment styles: static (no fallback — blackholes) and
	// adaptive (fallback — loops).
	modes := []struct {
		label      string
		noFallback bool
	}{{"post-failure static", true}, {"post-failure adaptive", false}}

	// Every run's outcome is e6Evaluate's delivered, looped and blackholed
	// pair counts.
	initial := make([][3]int, len(topos))
	failed := make([][][][3]int, len(topos)) // by topology, mode, victim link
	var tasks []func()
	for ti := len(topos) - 1; ti >= 0; ti-- {
		g := topos[ti].g
		tasks = append(tasks, func() {
			base := egp.New(g.Clone(), egp.Config{Seed: seed})
			base.Converge(convergenceLimit)
			initial[ti] = e6Evaluate(base, g)
		})
		failed[ti] = make([][][3]int, len(modes))
		for mi, mode := range modes {
			links := g.Links()
			failed[ti][mi] = make([][3]int, len(links))
			for li, victim := range links {
				tasks = append(tasks, func() {
					sys := egp.New(g.Clone(), egp.Config{Seed: seed, NoFallback: mode.noFallback})
					sys.Converge(convergenceLimit)
					_ = sys.FailLink(victim.A, victim.B)
					sys.Converge(10 * convergenceLimit)
					failed[ti][mi][li] = e6Evaluate(sys, g)
				})
			}
		}
	}

	return rows{tasks, func() *metrics.Table {
		t := metrics.NewTable("E6 — EGP and the acyclic topology restriction",
			"topology", "phase", "pairs", "delivered", "loops", "blackholes", "loop-inducing-failures")
		for ti, topo := range topos {
			n := topo.g.NumADs()
			pairs := n * (n - 1)
			d0 := initial[ti]
			t.AddRow(topo.name, "initial", pairs, d0[0], d0[1], d0[2], "-")
			for mi, mode := range modes {
				var total [3]int
				loopInducing := 0
				runs := failed[ti][mi]
				for _, r := range runs {
					for k := range total {
						total[k] += r[k]
					}
					if r[1] > 0 {
						loopInducing++
					}
				}
				t.AddRow(topo.name, mode.label, pairs,
					total[0]/len(runs), total[1]/len(runs), total[2]/len(runs),
					formatFrac(loopInducing, len(runs)))
			}
		}
		t.AddNote("each post-failure row averages over every possible single-link failure (fresh system per failure)")
		t.AddNote("static EGP never loops but never adapts (blackholes, even where the mesh has a legal detour)")
		t.AddNote("adaptive fallback forms persistent undetectable loops — the dilemma behind the acyclic restriction (§3)")
		return t
	}}
}

// e6Evaluate routes every ordered pair of g's ADs through sys and counts the
// delivered, looped and blackholed ones.
func e6Evaluate(sys *egp.System, g *ad.Graph) (out [3]int) {
	for _, src := range g.IDs() {
		for _, dst := range g.IDs() {
			if src == dst {
				continue
			}
			r := sys.Route(policy.Request{Src: src, Dst: dst})
			switch {
			case r.Delivered:
				out[0]++
			case r.Looped:
				out[1]++
			default:
				out[2]++
			}
		}
	}
	return out
}

func formatFrac(a, b int) string {
	return fmt.Sprintf("%d/%d", a, b)
}

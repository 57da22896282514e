// Package experiments implements the reproduction harness: one function per
// table/figure/claim of Breslau & Estrin (SIGCOMM 1990), each returning a
// rendered result table. The per-experiment index lives in DESIGN.md; the
// recorded outcomes in EXPERIMENTS.md.
//
// All experiments are deterministic in their seed. cmd/experiments runs them
// all; bench_test.go wraps each as a benchmark.
package experiments

import (
	"repro/internal/ad"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trafficgen"
	"repro/internal/wire"
)

// convergenceLimit bounds every protocol run.
const convergenceLimit = 600 * sim.Second

// failer is implemented by every system that supports failure injection.
type failer interface {
	FailLink(a, b ad.ID) error
}

// defaultTopology builds the common evaluation internet used by T1/E1: two
// backbones, three regionals each, three campuses per regional, with
// lateral, bypass, and multi-homing structure per the paper's model.
func defaultTopology(seed int64) *topology.Topology {
	return topology.Generate(topology.Config{
		Seed:                 seed,
		Backbones:            2,
		RegionalsPerBackbone: 3,
		CampusesPerParent:    3,
		LateralProb:          0.25,
		BypassProb:           0.10,
		MultihomedProb:       0.15,
		HybridProb:           0.15,
	})
}

// restrictedPolicy builds the moderately restricted policy regime used by
// the headline comparisons.
func restrictedPolicy(g *ad.Graph, seed int64) *policy.DB {
	return policy.Generate(g, policy.GenConfig{
		Seed:                  seed,
		SourceRestrictionProb: 0.6,
		SourceFraction:        0.5,
		DestRestrictionProb:   0.2,
		DestFraction:          0.7,
		AvoidProb:             0.2,
	})
}

// servingWorkload generates the request stream the route-server experiments
// (E20-E25) serve: stub-to-stub requests under the named popularity model,
// spread over two QOS and two UCI classes.
func servingWorkload(g *ad.Graph, seed int64, requests int, model string) []policy.Request {
	return trafficgen.Generate(g, trafficgen.Config{
		Seed: seed, Requests: requests, StubsOnly: true,
		Model: model, ZipfS: 1.4, QOSClasses: 2, UCIClasses: 2,
	})
}

// lateralLinks returns the first n lateral links, the links the churn
// timelines of E20-E25 fail and restore. The default topology has several;
// first links pad the list so hand-rolled graphs still get a timeline.
func lateralLinks(g *ad.Graph, n int) []ad.Link {
	var out []ad.Link
	for _, l := range g.Links() {
		if l.Class == ad.Lateral && len(out) < n {
			out = append(out, l)
		}
	}
	for _, l := range g.Links() {
		if len(out) >= n {
			break
		}
		out = append(out, l)
	}
	return out
}

// failOf and restoreOf are the control ops that take l down and bring it
// back.
func failOf(l ad.Link) wire.PlanStep {
	return wire.PlanStep{Op: wire.CtlFail, A: l.A, B: l.B}
}

func restoreOf(l ad.Link) wire.PlanStep {
	return wire.PlanStep{Op: wire.CtlRestore, A: l.A, B: l.B}
}

// independent lists every experiment other than Table 1, in report order.
// Each entry is deterministic in the seed and shares no state with the
// others, which is what makes the fan-out in RunAll sound.
var independent = []func(int64) *metrics.Table{
	func(int64) *metrics.Table { return Figure1Topology() },
	E1RouteAvailability,
	E2Convergence,
	E3SpanningTreeReplication,
	E4QOSScaling,
	E5SetupVsHandle,
	E6EGPTopologyRestriction,
	E7SynthesisStrategies,
	E8PolicyGranularity,
	E9MessageScaling,
	E10OrderingSatisfiability,
	E11FilterDiscovery,
	E12IDRPMultiRoute,
	E13TimeOfDay,
	E14PolicyChange,
	E15LogicalClusterCost,
	E16DatabaseDistribution,
	E17SetupAmortization,
	E18PathStretch,
	E19MultihomedStubs,
	E20RouteServer,
	E21StateLifecycles,
	E22ScopedInvalidation,
	E23HAFailover,
	E24PGStateScale,
	E25PlanEngine,
}

// All runs every experiment serially with the given seed. It is equivalent
// to RunAll(seed, 1).
func All(seed int64) []*metrics.Table {
	return RunAll(seed, 1)
}

// RunAll runs every experiment with the given seed, fanning the independent
// experiments — and, within Table 1, the nine independent protocol runs —
// across a bounded pool of at most parallelism workers (<= 0 means one per
// CPU). Tables are collected in the same fixed order as All, and because
// every experiment owns its topology, RNGs, and engine, the rendered output
// is byte-identical for any parallelism.
func RunAll(seed int64, parallelism int) []*metrics.Table {
	t1 := newTable1Run(seed)
	out := make([]*metrics.Table, 1+len(independent))
	tasks := make([]func(), 0, len(t1.points)+len(independent))
	for i := range t1.points {
		i := i
		tasks = append(tasks, func() { t1.runPoint(i) })
	}
	for j, fn := range independent {
		j, fn := j, fn
		tasks = append(tasks, func() { out[1+j] = fn(seed) })
	}
	parallel.Do(parallelism, tasks)
	out[0] = t1.table()
	return out
}

// Package experiments implements the reproduction harness: one function per
// table/figure/claim of Breslau & Estrin (SIGCOMM 1990), each returning a
// rendered result table. The per-experiment index lives in DESIGN.md; the
// recorded outcomes in EXPERIMENTS.md.
//
// All experiments are deterministic in their seed. cmd/experiments runs them
// all; BenchmarkRows times each one.
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

// rows is an experiment split into independent row tasks and the step that
// assembles its table once every task has run. Each task writes only state
// it owns (its slot of a results slice) and reads shared inputs without
// mutating them, so the tasks may run in any order on any number of workers
// and the table comes out byte for byte the same.
type rows struct {
	tasks []func()
	table func() *metrics.Table
}

// run executes the tasks on at most parallelism workers (<= 0 means one per
// CPU) and assembles the table.
func (r rows) run(parallelism int) *metrics.Table {
	parallel.Do(parallelism, r.tasks)
	return r.table()
}

// whole is an experiment that runs as a single task.
func whole(fn func(int64) *metrics.Table) func(int64) rows {
	return func(seed int64) rows {
		var t *metrics.Table
		return rows{
			tasks: []func(){func() { t = fn(seed) }},
			table: func() *metrics.Table { return t },
		}
	}
}

// report lists every table of the reproduction in report order, each under
// its -only name. Every experiment whose rows are independent splits into
// row tasks. Seven stay whole: figure1, E13, E15, E16 and E17 each take under
// 5 ms; E14's phases mutate one world in order; and E23 runs on wall-clock
// timers (it is not in the benchmark suite). No entry shares mutable state
// with another.
var report = []struct {
	name string
	rows func(int64) rows
}{
	{"table1", table1Rows},
	{"figure1", whole(func(int64) *metrics.Table { return Figure1Topology() })},
	{"e1", e1Rows},
	{"e2", e2Rows},
	{"e3", e3Rows},
	{"e4", e4Rows},
	{"e5", e5Rows},
	{"e6", e6Rows},
	{"e7", e7Rows},
	{"e8", e8Rows},
	{"e9", e9Rows},
	{"e10", e10Rows},
	{"e11", e11Rows},
	{"e12", e12Rows},
	{"e13", whole(E13TimeOfDay)},
	{"e14", whole(E14PolicyChange)},
	{"e15", whole(E15LogicalClusterCost)},
	{"e16", whole(E16DatabaseDistribution)},
	{"e17", whole(E17SetupAmortization)},
	{"e18", e18Rows},
	{"e19", e19Rows},
	{"e20", e20Rows},
	{"e21", e21Rows},
	{"e22", e22Rows},
	{"e23", whole(E23HAFailover)},
	{"e24", e24Rows},
	{"e25", e25Rows},
}

// RunAll runs every experiment with the given seed, fanning the row tasks of
// every experiment across one bounded pool of at most parallelism workers
// (<= 0 means one per CPU). Tables are collected in the report's fixed
// order, and because every task owns what it writes, the rendered output is
// byte-identical for any parallelism.
func RunAll(seed int64, parallelism int) []*metrics.Table {
	plans := make([]rows, len(report))
	var tasks []func()
	for i, e := range report {
		plans[i] = e.rows(seed)
		tasks = append(tasks, plans[i].tasks...)
	}
	parallel.Do(parallelism, tasks)
	out := make([]*metrics.Table, len(plans))
	for i, p := range plans {
		out[i] = p.table()
	}
	return out
}

// Run runs the experiment named name ("table1", "figure1", "e1" … "e25")
// with its row tasks on at most parallelism workers (<= 0 means one per
// CPU). ok is false if no experiment has that name.
func Run(name string, seed int64, parallelism int) (t *metrics.Table, ok bool) {
	for _, e := range report {
		if e.name == name {
			return e.rows(seed).run(parallelism), true
		}
	}
	return nil, false
}

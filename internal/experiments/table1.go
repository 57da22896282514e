package experiments

import (
	"repro/internal/ad"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/protocols/ecma"
	"repro/internal/protocols/egp"
	"repro/internal/protocols/filters"
	"repro/internal/protocols/idrp"
	"repro/internal/protocols/lshh"
	"repro/internal/protocols/orwg"
	"repro/internal/protocols/plaindv"
)

// designPoint annotates a system with its Table 1 coordinates.
type designPoint struct {
	sys       core.System
	algorithm string // "DV" | "LS" | "—"
	decision  string // "hop-by-hop" | "source"
	policyIn  string // "topology" | "policy terms" | "none"
}

// table1Run is a Table 1 reproduction decomposed into independently runnable
// protocol points, so RunAll can fan the nine runs across workers. The
// topology, policy database, oracle, and request workload are shared
// read-only; each point's System owns all state it mutates.
type table1Run struct {
	seed    int64
	g       *ad.Graph
	oracle  core.Oracle
	reqs    []policy.Request
	points  []designPoint
	results []core.Metrics
}

func newTable1Run(seed int64) *table1Run {
	topo := defaultTopology(seed)
	g := topo.Graph
	db := restrictedPolicy(g, seed+1)

	points := []designPoint{
		{plaindv.New(g, plaindv.Config{SplitHorizon: true, Seed: seed}), "DV", "hop-by-hop", "none"},
		{egp.New(g, egp.Config{Seed: seed}), "DV", "hop-by-hop", "none"},
		{filters.New(g, db, filters.Config{Seed: seed}), "—", "source", "filters"},
		{ecma.New(g, db, ecma.Config{Seed: seed}), "DV", "hop-by-hop", "topology"},
		{idrp.New(g, db, idrp.Config{Seed: seed, BGPMode: true}), "DV", "hop-by-hop", "local only"},
		{idrp.New(g, db, idrp.Config{Seed: seed}), "DV", "hop-by-hop", "policy terms"},
		{idrp.New(g, db, idrp.Config{Seed: seed, MultiRoute: 4}), "DV", "hop-by-hop", "policy terms"},
		{lshh.New(g, db, lshh.Config{Seed: seed}), "LS", "hop-by-hop", "policy terms"},
		{orwg.New(g, db, orwg.Config{Seed: seed}), "LS", "source", "policy terms"},
	}
	return &table1Run{
		seed:    seed,
		g:       g,
		oracle:  core.NewOracle(g, db),
		reqs:    core.AllPairsRequests(g, true, 0, 0),
		points:  points,
		results: make([]core.Metrics, len(points)),
	}
}

// runPoint evaluates design point i, writing only its own results slot.
func (r *table1Run) runPoint(i int) {
	r.results[i] = core.RunScenario(r.points[i].sys, r.oracle, r.reqs, convergenceLimit)
}

// table assembles the result table in fixed point order; every runPoint must
// have completed first.
func (r *table1Run) table() *metrics.Table {
	t := metrics.NewTable("Table 1 — inter-AD routing design space on a common internet",
		"protocol", "algorithm", "decision", "policy", "availability", "illegal", "loops",
		"messages", "bytes", "conv", "state", "computations")
	for i, p := range r.points {
		m := r.results[i]
		t.AddRow(m.Protocol, p.algorithm, p.decision, p.policyIn,
			m.Availability(), m.DeliveredIllegal, m.Looped,
			m.Messages, m.Bytes, m.ConvergenceTime.String(), m.StateEntries, m.Computations)
	}
	t.AddNote("topology: %d ADs, %d links (seed %d); %d stub-pair requests, %d oracle-routable",
		r.g.NumADs(), r.g.NumLinks(), r.seed, len(r.reqs), func() int {
			n := 0
			for _, req := range r.reqs {
				if r.oracle.HasRoute(req) {
					n++
				}
			}
			return n
		}())
	t.AddNote("availability = legally delivered / oracle-routable; illegal deliveries violate some AD's policy")
	return t
}

// Table1DesignSpace instantiates every point of the paper's Table 1 design
// space (plus the §3 baselines) on a common topology and policy set, and
// reports the comparison the paper makes qualitatively: route availability,
// policy violations, loop behaviour, overhead, convergence, and state.
func Table1DesignSpace(seed int64) *metrics.Table {
	r := newTable1Run(seed)
	for i := range r.points {
		r.runPoint(i)
	}
	return r.table()
}

package main

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

// experiment is one entry of the reproduction suite.
type experiment struct {
	name string
	run  func(seed int64) *metrics.Table
}

// suiteExperiments is what repro_suite times, in report order: table1,
// figure1 and every experiment but E23. E23 (HA failover) takes ~4 s of
// wall time on ~0.3 s of CPU — heartbeat and election timers — so timing
// it would measure sleeps.
var suiteExperiments = []experiment{
	{"table1", experiments.Table1DesignSpace},
	{"figure1", func(int64) *metrics.Table { return experiments.Figure1Topology() }},
	{"e1", experiments.E1RouteAvailability},
	{"e2", experiments.E2Convergence},
	{"e3", experiments.E3SpanningTreeReplication},
	{"e4", experiments.E4QOSScaling},
	{"e5", experiments.E5SetupVsHandle},
	{"e6", experiments.E6EGPTopologyRestriction},
	{"e7", experiments.E7SynthesisStrategies},
	{"e8", experiments.E8PolicyGranularity},
	{"e9", experiments.E9MessageScaling},
	{"e10", experiments.E10OrderingSatisfiability},
	{"e11", experiments.E11FilterDiscovery},
	{"e12", experiments.E12IDRPMultiRoute},
	{"e13", experiments.E13TimeOfDay},
	{"e14", experiments.E14PolicyChange},
	{"e15", experiments.E15LogicalClusterCost},
	{"e16", experiments.E16DatabaseDistribution},
	{"e17", experiments.E17SetupAmortization},
	{"e18", experiments.E18PathStretch},
	{"e19", experiments.E19MultihomedStubs},
	{"e20", experiments.E20RouteServer},
	{"e21", experiments.E21StateLifecycles},
	{"e22", experiments.E22ScopedInvalidation},
	{"e24", experiments.E24PGStateScale},
	{"e25", experiments.E25PlanEngine},
}

// heavy names the experiments that get a per-layer line of their own; the
// others are summed into experiments.rest_s and are what set-up runs once,
// untimed, so that the first timed pass does not pay for first use.
var heavy = map[string]bool{"e1": true, "e4": true, "e9": true, "e10": true, "e24": true, "e25": true}

var suiteLight = func() []experiment {
	var out []experiment
	for _, e := range suiteExperiments {
		if !heavy[e.name] {
			out = append(out, e)
		}
	}
	return out
}()

// pass runs every experiment once in order, rendering each table to a
// buffer, and returns the tables and each experiment's wall time.
func pass(list []experiment, seed int64) ([]*metrics.Table, []time.Duration) {
	var out bytes.Buffer
	tables := make([]*metrics.Table, len(list))
	took := make([]time.Duration, len(list))
	for i, e := range list {
		t0 := time.Now()
		tables[i] = e.run(seed)
		_ = tables[i].Render(&out) // a bytes.Buffer write cannot fail
		took[i] = time.Since(t0)
	}
	return tables, took
}

// schedulingDependent names the table columns that may differ between two
// runs of one seed on more than one core: E20 and E22 serve through
// concurrent clients and count synthesis computations, and the server's
// lookup-then-coalesce window (ROADMAP, first open item) lets a late
// caller synthesize a key a second time. Every other cell of every table
// is a function of the seed.
var schedulingDependent = map[string][]string{
	"e20": {"synth", "saved", "cache-rate"},
	"e22": {"synth", "hit-rate"},
}

// sameTables reports the first way in which a pass's tables differ from
// the first pass's, or "" if they agree.
func sameTables(list []experiment, want, got []*metrics.Table) string {
	for i, e := range list {
		w, g := want[i], got[i]
		if w.Title != g.Title || !slices.Equal(w.Headers, g.Headers) || !slices.Equal(w.Notes, g.Notes) || len(w.Rows) != len(g.Rows) {
			return e.name + ": title, headers, notes or row count differ"
		}
		for r := range w.Rows {
			for c := range w.Rows[r] {
				if w.Rows[r][c] != g.Rows[r][c] && !slices.Contains(schedulingDependent[e.name], w.Headers[c]) {
					return fmt.Sprintf("%s: row %d, column %q: %q then %q", e.name, r, w.Headers[c], w.Rows[r][c], g.Rows[r][c])
				}
			}
		}
	}
	return ""
}

// runSuite runs repro_suite: the experiments the reproduction's report is
// made of, called through their exported functions — the same synthesis,
// policy, ad, wire and sim packages the server uses, driven by the
// discrete-event protocols instead. It bypasses the daemon entirely. A
// "request" here is one experiment; passes repeat until the timed phase
// has lasted cfg.measure (sizing.suitePasses at least), and every value is
// the median over passes, as it is over the windows of a socket workload.
// Every experiment is called with sizing.suiteSeed, whatever the run's
// seed: the experiments size their own internets from their seed, so the
// run's seed would change how much work a pass is (the best of three
// passes took 4.0 to 6.7 s across six seeds on the reference box), not
// which sample of one workload it is. The outputs are checked by requiring
// every pass to produce the tables of the first: each experiment is
// deterministic in its seed (but see schedulingDependent).
func runSuite(w workload, cfg runConfig) result {
	res := result{Workload: w.name, Metrics: metricSet{}}
	list := cfg.sz.suite

	setups := make([]float64, 0, cfg.sz.setups)
	for i := 0; i < cfg.sz.setups; i++ {
		t0 := time.Now()
		pass(cfg.sz.suiteWarm, cfg.sz.suiteSeed)
		setups = append(setups, time.Since(t0).Seconds())
	}
	runtime.GC()

	var (
		first               []*metrics.Table
		wall, cpu, p50, p90 []float64
		perExp              = make([][]float64, len(list))
		start               = time.Now()
		measure             = cfg.measure
	)
	if cfg.trace {
		measure /= 2
	}
	for n := 0; n < cfg.sz.suitePasses || time.Since(start) < measure; n++ {
		t0, c0 := time.Now(), cpuTime()
		tables, took := pass(list, cfg.sz.suiteSeed)
		wall = append(wall, time.Since(t0).Seconds())
		cpu = append(cpu, float64((cpuTime()-c0).Microseconds())/float64(len(list)))
		res.Attempted += uint64(len(list))
		if first == nil {
			first = tables
		} else if diff := sameTables(list, first, tables); diff != "" {
			res.Failed++
			res.problem("pass %d differs from pass 0: %s", n, diff)
		}
		var lat samples
		for i, d := range took {
			lat.add(d)
			perExp[i] = append(perExp[i], d.Seconds())
		}
		slices.Sort(lat)
		p50 = append(p50, percentile(lat, 0.50)/1e3)
		p90 = append(p90, percentile(lat, 0.90)/1e3)
	}
	heap := heapAfterGC()
	res.Correct = res.Failed == 0 && len(res.problems) == 0

	m := res.Metrics
	if !cfg.trace {
		m.emit("setup_s", median(setups))
		m.emit("qps", float64(len(list))/median(wall))
		m.emit("p90_us", median(p90))
		m.emit("heap_mb", float64(heap)/1e6)
		return res
	}
	// The untraced run already times each experiment from outside; there
	// is no wrapper to attach, so the traced run costs nothing more.
	m.emit("p50_us", median(p50))
	m.emit("cpu_us_per_req", median(cpu))
	m.emit("suite_s", median(wall))
	rest := 0.0
	for i, e := range list {
		if heavy[e.name] {
			m.emit("experiments."+e.name+"_s", median(perExp[i]))
		} else {
			rest += median(perExp[i])
		}
	}
	m.emit("experiments.rest_s", rest)
	m.emit("client.samples", float64(len(wall)*len(list)))
	m.emit("client.window_spread", spread(wall))
	m.fill(perLayer)
	return res
}

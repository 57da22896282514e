package main

import (
	"time"

	"repro/internal/topology"
)

// metric is one printed value. Unit is part of the value: the result line
// carries it and the smoke test refuses a metric without one.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's metrics by name.
type metricSet map[string]metric

// unitOf is the unit of every metric this benchmark can print. The
// end-to-end names and the per-layer names are each emitted whole — every
// one of them on every workload — by an untraced and a traced run
// respectively; a per-layer metric whose layer a workload does not enter
// reads 0 there (that is the bypass prediction, stated as a number).
var unitOf = map[string]string{}

// endToEnd lists the end-to-end metrics in print order. BENCHMARK.json
// holds the same names with their direction and bound; smoke_test.go keeps
// the two from drifting. The driver wants every one of them on every
// workload, never 0, and steady from run to run, so five of the issue's
// nine are not here: failed_frac, which must always be 0, is the result
// line's failed ÷ attempted, and the other four head the per-layer list.
var endToEnd = declare(
	"setup_s", "s",
	"qps", "req/s",
	"p90_us", "us",
	"heap_mb", "MB",
)

// perLayer lists the per-layer metrics in print order, grouped by the
// module that is the layer.
var perLayer = declare(
	// The issue's end-to-end metrics that BENCHMARK.json cannot gate.
	// p50_us and cpu_us_per_req are demoted by the issue's own rule, on
	// what hit_sync did to them across identical runs (README,
	// Repeatability): its round trips fall into two populations of about
	// equal size — the peer was spinning, or it had to be woken — so the
	// median sits on the boundary between them, and at depth 1 the
	// processors are partly idle, so CPU per request counts how long the
	// scheduler spun. ctl_p50_us (the control round trip beside churn's
	// load) and suite_s (one pass over repro_suite) exist on one workload
	// each.
	"p50_us", "us",
	"cpu_us_per_req", "us",
	"ctl_p50_us", "us",
	"suite_s", "s",
	// wire: the codec over the tape's real messages, in memory.
	"wire.query_marshal_ns", "ns",
	"wire.query_unmarshal_ns", "ns",
	"wire.reply_marshal_ns", "ns",
	"wire.reply_unmarshal_ns", "ns",
	"wire.allocs_per_roundtrip", "count",
	"wire.alloc_bytes_per_roundtrip", "B",
	"wire.query_frame_bytes", "B",
	"wire.reply_frame_bytes", "B",
	// daemon: the transport ladder on one connection, the server side of
	// the sockets seen through a counting conn, and the daemon's counters.
	"daemon.pipe_rtt_us", "us",
	"daemon.unix_rtt_us", "us",
	"daemon.tcp_rtt_us", "us",
	"daemon.tcp_d8_us_per_req", "us",
	"daemon.tcp_d64_us_per_req", "us",
	"daemon.self_us", "us",
	"daemon.srv_reads_per_req", "count",
	"daemon.srv_writes_per_req", "count",
	"daemon.srv_bytes_in_per_req", "B",
	"daemon.srv_bytes_out_per_req", "B",
	"daemon.serve_p50_us", "us",
	"daemon.session_setup_us", "us",
	"daemon.accepted", "count",
	"daemon.refused", "count",
	"daemon.evicted_slow", "count",
	"daemon.requests", "count",
	// backend: direct calls.
	"backend.query_ns", "ns",
	"backend.ctl_fail_us", "us",
	"backend.ctl_restore_us", "us",
	// routeserver: direct calls and the server's public counters.
	"routeserver.query_hit_ns", "ns",
	"routeserver.query_hit_par_ns", "ns",
	"routeserver.hit_allocs", "count",
	"routeserver.hit_ratio", "ratio",
	"routeserver.misses", "count",
	"routeserver.coalesced", "count",
	"routeserver.evictions", "count",
	"routeserver.noroute_ratio", "ratio",
	"routeserver.synth_per_unique_key", "ratio",
	"routeserver.miss_self_us", "us",
	"routeserver.scoped_evicted_per_ctl", "count",
	"routeserver.retained_ratio", "ratio",
	"routeserver.resynth_per_ctl", "count",
	"routeserver.bytes_per_entry", "B",
	// synthesis: a delegating Strategy wrapper and StrategyStats.
	"synthesis.route_p50_us", "us",
	"synthesis.route_p99_us", "us",
	"synthesis.footprint_p50_us", "us",
	"synthesis.busy_frac", "ratio",
	"synthesis.overlap_mean", "count",
	"synthesis.invalidate_scoped_us", "us",
	"synthesis.precompute_s", "s",
	"synthesis.expansions_per_route", "count",
	"synthesis.table_hit_ratio", "ratio",
	"synthesis.demand_entries", "count",
	"synthesis.demand_evictions", "count",
	// cache: cache.LRU alone, at capacity, with the server's key type.
	"cache.get_ns", "ns",
	"cache.put_evict_ns", "ns",
	// experiments: where a pass over the reproduction suite spends its time.
	"experiments.e9_s", "s",
	"experiments.e10_s", "s",
	"experiments.e4_s", "s",
	"experiments.e24_s", "s",
	"experiments.e1_s", "s",
	"experiments.e25_s", "s",
	"experiments.rest_s", "s",
	// client: the generator's own view, diagnostic.
	"client.p99_us", "us",
	"client.p999_us", "us",
	"client.samples", "count",
	"client.window_spread", "ratio",
	"client.dial_p50_us", "us",
	// proc: the whole process, generator included.
	"proc.allocs_per_req", "count",
	"proc.alloc_bytes_per_req", "B",
	"proc.gc_cycles", "count",
	"proc.gc_pause_ms", "ms",
	"proc.heap_peak_mb", "MB",
	// trace: what attaching the wrappers cost.
	"trace.overhead_frac", "ratio",
)

// declare registers name/unit pairs and returns the names in order.
func declare(pairs ...string) []string {
	names := make([]string, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		if _, dup := unitOf[pairs[i]]; dup {
			panic("bench: metric declared twice: " + pairs[i])
		}
		unitOf[pairs[i]] = pairs[i+1]
		names = append(names, pairs[i])
	}
	return names
}

// emit stores v under name with the declared unit. It panics on an
// undeclared name or a second emission: "each metric is emitted exactly
// once" is a property of the code, so a breach is a bug to find at the
// first run, not a value to keep.
func (m metricSet) emit(name string, v float64) {
	unit, ok := unitOf[name]
	if !ok {
		panic("bench: undeclared metric: " + name)
	}
	if _, dup := m[name]; dup {
		panic("bench: metric emitted twice: " + name)
	}
	m[name] = metric{Value: v, Unit: unit}
}

// fill gives every name not yet emitted the value 0: the layer was not
// entered on this workload.
func (m metricSet) fill(names []string) {
	for _, n := range names {
		if _, ok := m[n]; !ok {
			m.emit(n, 0)
		}
	}
}

// workload describes one named traffic mix. The socket workloads share one
// runner and differ only in these fields; repro_suite has its own.
type workload struct {
	name string
	// tape selects the request tape: "zipf" is Z (sizing.tapeLen requests,
	// s = 1.4: ~7.5 k distinct keys at full size, fits the cache),
	// "uniform" is U (uniform pairs x classes x hours: distinct keys far
	// beyond the cache).
	tape string
	// depth is the number of requests each connection keeps outstanding.
	depth int
	// redialEvery closes and redials each connection after this many
	// requests (0 = sessions live for the whole run).
	redialEvery int
	// hybrid serves from synthesis.Hybrid over the tape's sizing.hotKeys
	// most frequent keys instead of synthesis.OnDemand.
	hybrid bool
	// smallCache pins the cache to sizing.missCapacity entries and fills
	// it to capacity from the tape's tail in set-up, instead of warming
	// every distinct key into the default 65 536-entry cache. The capacity
	// is small only so that LRU steady state is reached inside set-up.
	smallCache bool
	// control runs the control connection beside the load: fail/restore
	// alternately over the lateral links, one mutation every
	// sizing.ctlInterval.
	control bool
	// suite marks repro_suite, which runs no sockets at all.
	suite bool
}

// workloads holds the six named workloads in run order. Client counts are
// fixed by the method (min(nproc, 4) connections, one generator goroutine
// each, closed loop); depth and the rest are the workload.
var workloads = []workload{
	{name: "hit_sync", tape: "zipf", depth: 1},
	{name: "hit_pipelined", tape: "zipf", depth: 32},
	{name: "conn_churn", tape: "zipf", depth: 1, redialEvery: 4},
	{name: "miss_thrash", tape: "uniform", depth: 4, smallCache: true},
	{name: "churn", tape: "zipf", depth: 8, hybrid: true, control: true},
	{name: "repro_suite", suite: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sizing is how big a run is. fullSizing is the benchmark; the smoke test
// shrinks every field so the whole harness runs in a few seconds under the
// race detector. Nothing here is a tuning knob of the program under test.
type sizing struct {
	// topo is the internet; its Seed also generates the policy database
	// and draws the tapes (see generate).
	topo topology.Config
	// tapeLen is the length of both request tapes.
	tapeLen int
	// missCapacity is the cache capacity of the smallCache workload.
	missCapacity int
	// hotKeys is the size of the hybrid strategy's precomputed hot set.
	hotKeys int
	// setups is how many times set-up is repeated; setup_s is the median.
	setups int
	// warm is the untimed window before the timed phase; the timed phase
	// is windows equal windows and every value is the median over them.
	warm    time.Duration
	windows int
	// ctlInterval paces the churn workload's control connection.
	ctlInterval time.Duration
	// probe is how long each per-layer probe of a traced run measures.
	probe time.Duration
	// suite lists the experiments repro_suite times, suitePasses the
	// fewest passes it makes over them (it goes on until the timed phase
	// has lasted its length), suiteWarm those its set-up runs once
	// untimed, and suiteSeed the seed every experiment is called with.
	suite, suiteWarm []experiment
	suitePasses      int
	suiteSeed        int64
}

// fullSizing is the common internet I111 — 111 ADs (3 backbones, 12
// regionals, 24 metros, 72 campuses), ~160 links of which ~39 lateral at
// seed 42 — and the load sized against it on the 2-vCPU reference box.
func fullSizing() sizing {
	return sizing{
		topo: topology.Config{
			Seed:      42,
			Backbones: 3, RegionalsPerBackbone: 4, MetrosPerRegional: 2,
			CampusesPerParent: 3, LateralProb: 0.25, BypassProb: 0.1,
			MultihomedProb: 0.15, HybridProb: 0.15,
		},
		tapeLen:      200000,
		missCapacity: 16384,
		// 128, not the issue's 2048: Hybrid.InvalidateScoped re-searches every
		// unroutable hot key on each restore — 45 ms with 2048 hot keys, so a
		// control connection paced at 20 ms runs back to back; 12 ms with
		// 512, so the write lock is held a third of the run and a host that
		// slows by 15 % costs churn 35 %. The issue sized churn on a probe
		// whose mutations took 0.55 ms; 128 keys (3.5 ms a restore, the lock
		// held an eighth of the run) is the nearest the hybrid strategy gets.
		hotKeys:     128,
		setups:      3,
		warm:        time.Second,
		windows:     6,
		ctlInterval: 20 * time.Millisecond,
		probe:       300 * time.Millisecond,
		suite:       suiteExperiments,
		suitePasses: 3, // a median wants three
		suiteWarm:   suiteLight,
		// The seed of results_seed42.txt, the report this workload is.
		suiteSeed: 42,
	}
}

package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/topology"
)

// smokeSizing shrinks every dimension of a run so that all six workloads,
// untraced and traced, fit in a few seconds under the race detector. The
// code paths are the benchmark's own; only the sizes differ.
func smokeSizing(internetSeed int64) sizing {
	light := func(names ...string) []experiment {
		var out []experiment
		for _, n := range names {
			for _, e := range suiteExperiments {
				if e.name == n {
					out = append(out, e)
				}
			}
		}
		return out
	}
	return sizing{
		topo: topology.Config{
			Seed:      internetSeed,
			Backbones: 2, RegionalsPerBackbone: 2, CampusesPerParent: 2,
			LateralProb: 0.5, BypassProb: 0.1, MultihomedProb: 0.15, HybridProb: 0.15,
		},
		tapeLen:      2000,
		missCapacity: 64,
		hotKeys:      32,
		setups:       1,
		warm:         10 * time.Millisecond,
		windows:      4,
		ctlInterval:  2 * time.Millisecond,
		probe:        4 * time.Millisecond,
		suite:        light("figure1", "e13", "e15", "e16", "e17", "e22"),
		suitePasses:  2,
		suiteWarm:    light("figure1", "e13"),
		suiteSeed:    internetSeed,
	}
}

const smokeMeasure = 120 * time.Millisecond

// benchmarkJSON is BENCHMARK.json as the driver reads it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bj
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the code from
// drifting: the same workloads, the same metric names and units, in the
// same order, and the limits of the description's schema.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the code has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the code %q", i, bj.Workloads[i].Name, w.name)
		}
		if why := bj.Workloads[i].Why; why == "" || len(why) > 200 || strings.Contains(why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters, got %d", w.name, len(why))
		}
	}
	check := func(kind string, got []benchmarkMetric, want []string, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json names %d metrics, the code has %d", kind, len(got), len(want))
		}
		for i, name := range want {
			m := got[i]
			if m.Name != name {
				t.Errorf("%s metric %d: BENCHMARK.json says %q, the code %q", kind, i, m.Name, name)
				continue
			}
			if m.Unit != unitOf[name] {
				t.Errorf("%s: unit %q in BENCHMARK.json, %q in the code", name, m.Unit, unitOf[name])
			}
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("%s: better = %q", name, m.Better)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25):
				t.Errorf("%s: an end-to-end metric needs a bound in (0, 0.25]", name)
			case !bounded && m.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", name)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
	if endToEnd[0] != "setup_s" || unitOf["setup_s"] != "s" {
		t.Error("setup_s (s) must be an end-to-end metric")
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bj.RunSeconds)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bj.Paths)
	}
}

// entered lists, per workload, per-layer metrics that must not be left at
// the "layer not entered" zero: they show that the wrappers, the counting
// conn, the ring and the probes are really attached where they should be.
var entered = map[string][]string{
	"miss_thrash": {
		"p50_us", "synthesis.route_p50_us", "synthesis.busy_frac", "synthesis.overlap_mean", "synthesis.expansions_per_route",
		"routeserver.misses", "routeserver.evictions", "routeserver.synth_per_unique_key", "routeserver.miss_self_us",
		"routeserver.bytes_per_entry", "daemon.srv_reads_per_req", "daemon.srv_writes_per_req", "daemon.serve_p50_us",
		"daemon.pipe_rtt_us", "daemon.unix_rtt_us", "daemon.tcp_rtt_us", "daemon.tcp_d8_us_per_req", "daemon.tcp_d64_us_per_req",
		"daemon.requests", "backend.query_ns", "routeserver.query_hit_ns", "routeserver.query_hit_par_ns",
		"wire.query_marshal_ns", "wire.reply_unmarshal_ns", "wire.allocs_per_roundtrip", "wire.query_frame_bytes",
		"cache.get_ns", "cache.put_evict_ns", "client.samples", "client.dial_p50_us", "proc.allocs_per_req",
	},
	"churn": {
		"ctl_p50_us", "synthesis.invalidate_scoped_us", "synthesis.precompute_s", "synthesis.demand_entries",
		"routeserver.scoped_evicted_per_ctl", "routeserver.retained_ratio", "backend.ctl_fail_us", "backend.ctl_restore_us",
	},
	"repro_suite": {"p50_us", "suite_s", "experiments.rest_s", "client.samples"},
}

// TestSmokeEveryWorkload runs all six workloads at smoke sizing, untraced
// and traced, and checks that each run is correct and emits exactly the
// metrics BENCHMARK.json promises for that kind of run, each once (emit
// panics on a second), finite, with its unit — and, for the end-to-end
// ones, never 0. The benchmark itself measures one fixed internet; here
// the answers are also checked on a second internet and policy, and (in
// runSuite) the suite's passes against each other at a seed that has no
// golden report.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		for _, c := range []struct {
			name         string
			traced       bool
			internetSeed int64
		}{{"untraced", false, 42}, {"traced", true, 42}, {"untraced-internet-43", false, 43}} {
			traced := c.traced
			want := endToEnd
			if traced {
				want = perLayer
			}
			t.Run(w.name+"/"+c.name, func(t *testing.T) {
				res := runWorkload(w, runConfig{seed: 7, measure: smokeMeasure, trace: traced, sz: smokeSizing(c.internetSeed)})
				for _, p := range res.problems {
					t.Error(p)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, want %d", len(res.Metrics), len(want))
				}
				for _, n := range want {
					m, ok := res.Metrics[n]
					switch {
					case !ok:
						t.Errorf("%s: not emitted", n)
					case m.Unit == "" || m.Unit != unitOf[n]:
						t.Errorf("%s: unit %q, want %q", n, m.Unit, unitOf[n])
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s: %v is not finite", n, m.Value)
					case !traced && m.Value <= 0:
						t.Errorf("%s: an end-to-end metric read %v", n, m.Value)
					}
				}
				for _, n := range entered[w.name] {
					if traced && res.Metrics[n].Value <= 0 {
						t.Errorf("%s = %v, want the layer entered", n, res.Metrics[n].Value)
					}
				}
			})
		}
	}
}

// TestSuiteTablesAreTheReport checks what repro_suite runs against the
// repository's golden report: at seed 42 every table that is a function
// of the seed alone must appear in results_seed42.txt verbatim.
func TestSuiteTablesAreTheReport(t *testing.T) {
	golden, err := os.ReadFile("../results_seed42.txt")
	if err != nil {
		t.Fatal(err)
	}
	list := smokeSizing(42).suite
	tables, _ := pass(list, 42)
	for i, e := range list {
		if len(schedulingDependent[e.name]) > 0 {
			continue // its synth columns differ from run to run on two cores
		}
		if !strings.Contains(string(golden), tables[i].String()) {
			t.Errorf("%s at seed 42 is not in results_seed42.txt:\n%s", e.name, tables[i])
		}
	}
	// A different table in a later pass must be caught...
	again, _ := pass(list, 42)
	if diff := sameTables(list, tables, again); diff != "" {
		t.Errorf("two passes at one seed differ: %s", diff)
	}
	other, _ := pass(list, 43)
	if sameTables(list, tables, other) == "" {
		t.Error("sameTables did not tell seed 42 from seed 43")
	}
	// ...except in the columns the double-synthesis window moves.
	for i, e := range list {
		cols := schedulingDependent[e.name]
		if len(cols) == 0 {
			continue
		}
		for c, h := range again[i].Headers {
			if h == cols[0] {
				again[i].Rows[0][c] += "0"
			}
		}
		if diff := sameTables(list, tables, again); diff != "" {
			t.Errorf("a scheduling-dependent cell failed the pass: %s", diff)
		}
	}
}

// TestFrameScanner feeds the scanner a frame stream cut at every possible
// point: it must find each frame's ID and end whatever the chunking.
func TestFrameScanner(t *testing.T) {
	var stream []byte
	var ids []uint64
	for i, body := range []int{8, 19, 8, 300, 11} { // body lengths, each starting with the 8-byte ID
		id := uint64(0xABCD0000 + i)
		frame := make([]byte, 4+body)
		frame[0], frame[1] = 1, 10
		frame[2], frame[3] = byte(body>>8), byte(body)
		for b := 0; b < 8; b++ {
			frame[4+b] = byte(id >> (56 - 8*b))
		}
		stream = append(stream, frame...)
		ids = append(ids, id)
	}
	for chunk := 1; chunk <= len(stream); chunk++ {
		var f frameScanner
		var begun, ended []uint64
		for off := 0; off < len(stream); off += chunk {
			end := off + chunk
			if end > len(stream) {
				end = len(stream)
			}
			f.feed(stream[off:end], int64(off),
				func(id uint64, first int64) { begun = append(begun, id) },
				func(id uint64) { ended = append(ended, id) })
		}
		if len(begun) != len(ids) || len(ended) != len(ids) {
			t.Fatalf("chunk %d: %d begun, %d ended, want %d", chunk, len(begun), len(ended), len(ids))
		}
		for i := range ids {
			if begun[i] != ids[i] || ended[i] != ids[i] {
				t.Fatalf("chunk %d: frame %d read as %#x/%#x, want %#x", chunk, i, begun[i], ended[i], ids[i])
			}
		}
	}
}

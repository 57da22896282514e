package experiments

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/protocols"
	"repro/internal/topology"
)

func parseFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "s"), 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

const seed = 42

func TestTable1DesignSpace(t *testing.T) {
	tbl := Table1DesignSpace(seed)
	if len(tbl.Rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(tbl.Rows))
	}
	avail := map[string]float64{}
	illegal := map[string]float64{}
	for _, row := range tbl.Rows {
		avail[row[0]] = parseFloat(t, row[4])
		illegal[row[0]] = parseFloat(t, row[5])
	}
	// The paper's conclusion: the LS + source routing + policy terms
	// architecture dominates on availability.
	if avail["orwg"] < 0.999 {
		t.Errorf("orwg availability = %.3f, want 1.0", avail["orwg"])
	}
	for _, p := range []string{"plain-dv", "egp", "bgp", "ecma", "idrp", "ls-hop-by-hop", "filters"} {
		if avail[p] > avail["orwg"]+1e-9 {
			t.Errorf("%s availability %.3f exceeds orwg %.3f", p, avail[p], avail["orwg"])
		}
	}
	// Policy-blind protocols violate policies; ORWG never does.
	if illegal["plain-dv"] == 0 {
		t.Error("plain-dv produced no illegal deliveries under restricted policy")
	}
	if illegal["bgp"] == 0 {
		t.Error("bgp produced no illegal deliveries under restricted policy")
	}
	if illegal["orwg"] != 0 {
		t.Errorf("orwg illegal deliveries = %v", illegal["orwg"])
	}
	// Multi-route IDRP at least matches single-route.
	if avail["idrp-multi"]+1e-9 < avail["idrp"] {
		t.Errorf("idrp-multi %.3f < idrp %.3f", avail["idrp-multi"], avail["idrp"])
	}
}

func TestFigure1Table(t *testing.T) {
	tbl := Figure1Topology()
	vals := map[string]string{}
	for _, row := range tbl.Rows {
		vals[row[0]] = row[1]
	}
	if vals["backbones"] != "2" || vals["lateral links"] != "2" || vals["bypass links"] != "1" {
		t.Errorf("figure 1 structure wrong: %v", vals)
	}
	if vals["connected"] != "true" || vals["contains cycles"] != "true" {
		t.Errorf("figure 1 invariants wrong: %v", vals)
	}
}

func TestE1AvailabilityMonotonicity(t *testing.T) {
	tbl := E1RouteAvailability(seed)
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		orwg := parseFloat(t, row[8])
		if orwg < 0.999 {
			t.Errorf("restriction %s: orwg availability %.3f < 1", row[0], orwg)
		}
		idrp := parseFloat(t, row[6])
		lshh := parseFloat(t, row[7])
		if idrp > orwg+1e-9 || lshh > orwg+1e-9 {
			t.Errorf("restriction %s: hop-by-hop beats source routing", row[0])
		}
	}
	// At the highest restriction, IDRP must lose availability vs ORWG.
	last := tbl.Rows[len(tbl.Rows)-1]
	if parseFloat(t, last[6]) >= parseFloat(t, last[8]) {
		t.Errorf("full restriction: idrp %.3f !< orwg %.3f", parseFloat(t, last[6]), parseFloat(t, last[8]))
	}
	// BGP and ECMA leak illegal deliveries once restrictions exist.
	bgpLeaked, ecmaLeaked := false, false
	for _, row := range tbl.Rows[1:] {
		if parseFloat(t, row[3]) > 0 {
			bgpLeaked = true
		}
		if parseFloat(t, row[5]) > 0 {
			ecmaLeaked = true
		}
	}
	if !ecmaLeaked {
		t.Error("ECMA never leaked under source restrictions")
	}
	if !bgpLeaked {
		t.Error("BGP never leaked under source restrictions")
	}
}

func TestE2ConvergenceClaims(t *testing.T) {
	tbl := E2Convergence(seed)
	msgs := map[string]float64{}
	for _, row := range tbl.Rows {
		msgs[row[0]] = parseFloat(t, row[3])
		if row[5] != "true" {
			t.Errorf("%s did not quiesce", row[0])
		}
	}
	if msgs["plain-dv(no-split)"] <= msgs["plain-dv(split-horizon)"] {
		t.Errorf("count-to-infinity not visible: no-split %v <= split %v",
			msgs["plain-dv(no-split)"], msgs["plain-dv(split-horizon)"])
	}
	if msgs["ecma"] > msgs["ecma(no-ordering)"] {
		t.Errorf("ordering did not reduce failure traffic: %v > %v",
			msgs["ecma"], msgs["ecma(no-ordering)"])
	}
}

func TestE3ReplicationGrowsWithSources(t *testing.T) {
	tbl := E3SpanningTreeReplication(seed)
	var prev float64 = -1
	for _, row := range tbl.Rows {
		sources := parseFloat(t, row[0])
		hub := parseFloat(t, row[1])
		if hub != sources {
			t.Errorf("hub computations %v != sources %v", hub, sources)
		}
		if hub <= prev {
			t.Error("hub computations not growing")
		}
		prev = hub
		if parseFloat(t, row[3]) != 0 {
			t.Error("orwg transit computations nonzero")
		}
	}
}

func TestE4QOSStateGrowth(t *testing.T) {
	tbl := E4QOSScaling(seed)
	firstEcma := parseFloat(t, tbl.Rows[0][1])
	lastEcma := parseFloat(t, tbl.Rows[len(tbl.Rows)-1][1])
	if lastEcma < 4*firstEcma {
		t.Errorf("ECMA state did not scale with QOS classes: %v -> %v", firstEcma, lastEcma)
	}
	firstOrwg := parseFloat(t, tbl.Rows[0][5])
	lastOrwg := parseFloat(t, tbl.Rows[len(tbl.Rows)-1][5])
	if lastOrwg > 1.5*firstOrwg {
		t.Errorf("ORWG state grew with QOS classes: %v -> %v", firstOrwg, lastOrwg)
	}
}

func TestE5HeaderSavings(t *testing.T) {
	tbl := E5SetupVsHandle(seed)
	for _, row := range tbl.Rows {
		saving := parseFloat(t, row[6])
		if saving <= 1 {
			t.Errorf("cap %s: source-route/handle header ratio %.3f <= 1", row[0], saving)
		}
	}
	// Unlimited cache: perfect hit rate; tiny cache: evictions occur.
	if parseFloat(t, tbl.Rows[0][7]) < 0.999 {
		t.Errorf("unlimited cache hit rate %.3f < 1", parseFloat(t, tbl.Rows[0][7]))
	}
	last := tbl.Rows[len(tbl.Rows)-1]
	if parseFloat(t, last[8]) == 0 {
		t.Error("tiny cache produced no evictions")
	}
	if parseFloat(t, last[7]) >= parseFloat(t, tbl.Rows[0][7]) {
		t.Error("tiny cache hit rate not below unlimited")
	}
}

func TestE6EGPRestriction(t *testing.T) {
	tbl := E6EGPTopologyRestriction(seed)
	byKey := map[string][]string{}
	for _, row := range tbl.Rows {
		byKey[row[0]+"/"+row[1]] = row
	}
	// Initial phases deliver everything, no loops, on both topologies.
	for _, k := range []string{"tree/initial", "mesh/initial"} {
		row := byKey[k]
		if row[3] != row[2] || row[4] != "0" {
			t.Errorf("%s: delivered=%s/%s loops=%s", k, row[3], row[2], row[4])
		}
	}
	parseFrac := func(s string) (int, int) {
		var a, b int
		if _, err := fmt.Sscanf(s, "%d/%d", &a, &b); err != nil {
			t.Fatalf("parse frac %q: %v", s, err)
		}
		return a, b
	}
	// Static EGP never loops, anywhere.
	for _, k := range []string{"tree/post-failure static", "mesh/post-failure static"} {
		if byKey[k][4] != "0" {
			t.Errorf("%s: loops = %s, want 0", k, byKey[k][4])
		}
		if li, _ := parseFrac(byKey[k][6]); li != 0 {
			t.Errorf("%s: loop-inducing failures = %d, want 0", k, li)
		}
	}
	// Adaptive fallback on the mesh forms persistent loops.
	meshLoops, meshLinks := parseFrac(byKey["mesh/post-failure adaptive"][6])
	if meshLoops == 0 {
		t.Errorf("no loop-inducing failures on adaptive mesh (%d links)", meshLinks)
	}
	// Adaptation buys deliveries on the mesh relative to static EGP.
	if parseFloat(t, byKey["mesh/post-failure adaptive"][3]) < parseFloat(t, byKey["mesh/post-failure static"][3]) {
		t.Error("adaptive EGP delivered less than static on the mesh")
	}
}

func TestE7StrategyTradeoffs(t *testing.T) {
	tbl := E7SynthesisStrategies(seed)
	// Group rows by size; within each, check the tradeoff shape.
	for i := 0; i+3 < len(tbl.Rows); i += 4 {
		pre, dem, hyb, pru := tbl.Rows[i], tbl.Rows[i+1], tbl.Rows[i+2], tbl.Rows[i+3]
		if pre[1] != "precomputed" || dem[1] != "on-demand" || hyb[1] != "hybrid" || pru[1] != "pruned" {
			t.Fatalf("row order unexpected: %v %v %v %v", pre[1], dem[1], hyb[1], pru[1])
		}
		if parseFloat(t, pre[2]) <= parseFloat(t, hyb[2]) {
			t.Error("precompute-everything does not cost more than hybrid precompute")
		}
		if parseFloat(t, dem[2]) != 0 {
			t.Error("on-demand charged precompute work")
		}
		if parseFloat(t, hyb[4]) <= parseFloat(t, dem[4]) {
			t.Error("hybrid hit rate not above on-demand")
		}
		if parseFloat(t, pru[4]) <= parseFloat(t, dem[4]) {
			t.Error("pruned hit rate not above on-demand")
		}
		if parseFloat(t, pru[2]) >= parseFloat(t, pre[2]) {
			t.Error("pruned precompute not cheaper than precompute-everything")
		}
	}
}

func TestE8GranularityCosts(t *testing.T) {
	tbl := E8PolicyGranularity(seed)
	first, last := tbl.Rows[0], tbl.Rows[len(tbl.Rows)-1]
	if parseFloat(t, last[1]) <= parseFloat(t, first[1]) {
		t.Error("terms did not grow")
	}
	if parseFloat(t, last[2]) <= parseFloat(t, first[2]) {
		t.Error("LSDB bytes did not grow with granularity")
	}
	if parseFloat(t, last[3]) <= parseFloat(t, first[3]) {
		t.Error("flood bytes did not grow with granularity")
	}
	// Semantics preserved: availability stays 1.0.
	for _, row := range tbl.Rows {
		if parseFloat(t, row[5]) < 0.999 {
			t.Errorf("granularity %s lost availability %s", row[0], row[5])
		}
	}
}

func TestE9TrafficGrowsWithSize(t *testing.T) {
	tbl := E9MessageScaling(seed)
	// For each protocol, bytes must grow with AD count.
	byProto := map[string][]float64{}
	for _, row := range tbl.Rows {
		byProto[row[2]] = append(byProto[row[2]], parseFloat(t, row[4]))
	}
	for proto, bytes := range byProto {
		for i := 1; i < len(bytes); i++ {
			if bytes[i] <= bytes[i-1] {
				t.Errorf("%s: bytes not growing: %v", proto, bytes)
				break
			}
		}
	}
}

// TestE9FloodIdentity holds the link-state designs' cold start to its
// closed form. Each AD's LSA leaves its origin on every link there and
// leaves every other AD on every link but the one it first arrived on, so
// an internet of N ADs and L links floods exactly N·(2L − N + 1) messages.
// The identity holds at every seed, so N and L come from each seed's own
// graph; at seed 42 the sizes are pinned too: E9's four internets have 7,
// 26, 63 and 148 ADs and flood 42, 910, 5,670 and 25,308.
func TestE9FloodIdentity(t *testing.T) {
	pinned := [][3]int{{7, 6, 42}, {26, 30, 910}, {63, 76, 5670}, {148, 159, 25308}}
	for _, sd := range []int64{seed, 7} {
		for i, c := range e9Sizes(sd) {
			g := topology.Generate(c).Graph
			n, l := g.NumADs(), g.NumLinks()
			flood := n * (2*l - n + 1)
			if w := pinned[i]; sd == 42 && (n != w[0] || l != w[1] || flood != w[2]) {
				t.Fatalf("seed 42, internet %d: %d ADs, %d links, flood %d; want %v", i, n, l, flood, w)
			}
			db := e9Policy(g, sd)
			for _, name := range []string{"lshh", "orwg"} {
				sys := protocols.Lookup(name).New(g.Clone(), db)
				if _, ok := sys.Converge(convergenceLimit); !ok {
					t.Fatalf("seed %d: %s on %d ADs did not converge", sd, name, n)
				}
				if got := sys.Network().Stats.MessagesSent; got != uint64(flood) {
					t.Errorf("seed %d: %s on %d ADs, %d links: %d messages, want %d", sd, name, n, l, got, flood)
				}
			}
		}
	}
}

func TestE10SatisfiabilityDecays(t *testing.T) {
	tbl := E10OrderingSatisfiability(seed)
	first := parseFloat(t, tbl.Rows[0][1])
	last := parseFloat(t, tbl.Rows[len(tbl.Rows)-1][1])
	if first < 0.9 {
		t.Errorf("few constraints should almost always be satisfiable: %v", first)
	}
	if last > 0.05 {
		t.Errorf("many constraints should almost never be satisfiable: %v", last)
	}
	// Negotiation rounds grow.
	if parseFloat(t, tbl.Rows[len(tbl.Rows)-1][2]) <= parseFloat(t, tbl.Rows[0][2]) {
		t.Error("negotiation rounds did not grow")
	}
}

func TestE11FiltersWorse(t *testing.T) {
	tbl := E11FilterDiscovery(seed)
	f, o := tbl.Rows[0], tbl.Rows[1]
	if parseFloat(t, f[3]) == 0 {
		t.Error("filters dropped no packets")
	}
	if parseFloat(t, o[3]) != 0 {
		t.Error("orwg dropped packets")
	}
	if parseFloat(t, f[1]) > parseFloat(t, o[1]) {
		t.Error("filters delivered more than orwg")
	}
	if parseFloat(t, f[6]) <= parseFloat(t, o[6]) {
		t.Error("filter p95 latency not worse than orwg")
	}
}

func TestE12MultiRouteTradeoff(t *testing.T) {
	tbl := E12IDRPMultiRoute(seed)
	first, last := tbl.Rows[0], tbl.Rows[len(tbl.Rows)-1]
	if parseFloat(t, last[1]) < parseFloat(t, first[1]) {
		t.Error("more routes reduced availability")
	}
	if parseFloat(t, last[3]) <= parseFloat(t, first[3]) {
		t.Error("more routes did not increase state")
	}
}

func TestAllRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	tables := RunAll(seed, 1)
	if len(tables) != 27 {
		t.Fatalf("tables = %d, want 27", len(tables))
	}
	for _, tbl := range tables {
		if len(tbl.Rows) == 0 {
			t.Errorf("table %q empty", tbl.Title)
		}
		if tbl.String() == "" {
			t.Errorf("table %q renders empty", tbl.Title)
		}
	}
}

func TestRunAllParallelDeterminism(t *testing.T) {
	// The parallel runner must render byte-identical tables regardless of
	// parallelism: every experiment (and every Table 1 protocol run) owns
	// its engine and RNGs, and results land in fixed slots.
	if testing.Short() {
		t.Skip("long")
	}
	render := func(tables []*metrics.Table) string {
		var b strings.Builder
		for _, tbl := range tables {
			b.WriteString(tbl.String())
		}
		return b.String()
	}
	serial := render(RunAll(seed, 1))
	parallel := render(RunAll(seed, 8))
	if serial != parallel {
		t.Error("RunAll(seed, 8) output differs from RunAll(seed, 1)")
	}
}

// exported is the function each report entry is exported as: what callers
// outside the package, the repository benchmark's repro_suite among them,
// run and time.
var exported = map[string]func(int64) *metrics.Table{
	"table1":  Table1DesignSpace,
	"figure1": func(int64) *metrics.Table { return Figure1Topology() },
	"e1":      E1RouteAvailability,
	"e2":      E2Convergence,
	"e3":      E3SpanningTreeReplication,
	"e4":      E4QOSScaling,
	"e5":      E5SetupVsHandle,
	"e6":      E6EGPTopologyRestriction,
	"e7":      E7SynthesisStrategies,
	"e8":      E8PolicyGranularity,
	"e9":      E9MessageScaling,
	"e10":     E10OrderingSatisfiability,
	"e11":     E11FilterDiscovery,
	"e12":     E12IDRPMultiRoute,
	"e13":     E13TimeOfDay,
	"e14":     E14PolicyChange,
	"e15":     E15LogicalClusterCost,
	"e16":     E16DatabaseDistribution,
	"e17":     E17SetupAmortization,
	"e18":     E18PathStretch,
	"e19":     E19MultihomedStubs,
	"e20":     E20RouteServer,
	"e21":     E21StateLifecycles,
	"e22":     E22ScopedInvalidation,
	"e23":     E23HAFailover,
	"e24":     E24PGStateScale,
	"e25":     E25PlanEngine,
}

// TestRowsAtAnyParallelism pins the premise of every experiment that splits
// into row tasks: each task owns what it writes, so the table renders the
// same on one worker and on four. It names the experiments that split, so
// one that falls back to a single task fails by name, and it holds every
// exported function, which runs its rows on one worker per CPU, to the
// table Run renders on one worker.
func TestRowsAtAnyParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	var split []string
	for _, e := range report {
		fn, ok := exported[e.name]
		if !ok {
			t.Errorf("%s: no exported function listed", e.name)
			continue
		}
		serial, _ := Run(e.name, seed, 1)
		want := serial.String()
		if got := fn(seed).String(); got != want {
			t.Errorf("%s: the exported function rendered\n%s\nRun on one worker rendered\n%s", e.name, got, want)
		}
		if len(e.rows(seed).tasks) < 2 {
			continue
		}
		split = append(split, e.name)
		if got := e.rows(seed).run(4).String(); got != want {
			t.Errorf("%s: four workers rendered\n%s\none worker rendered\n%s", e.name, got, want)
		}
	}
	wantSplit := []string{"table1", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10",
		"e11", "e12", "e18", "e19", "e20", "e21", "e22", "e24", "e25"}
	if !slices.Equal(split, wantSplit) {
		t.Errorf("experiments split into row tasks = %v, want %v", split, wantSplit)
	}
}

func TestRunByName(t *testing.T) {
	var names []string
	for _, e := range report {
		names = append(names, e.name)
	}
	want := []string{"table1", "figure1"}
	for i := 1; i <= 25; i++ {
		want = append(want, fmt.Sprintf("e%d", i))
	}
	if !slices.Equal(names, want) {
		t.Errorf("report names = %v, want %v", names, want)
	}
	if _, ok := Run("e26", seed, 1); ok {
		t.Error(`Run("e26") found an experiment`)
	}
	if tbl, ok := Run("figure1", seed, 1); !ok || tbl.String() != Figure1Topology().String() {
		t.Error(`Run("figure1") is not Figure1Topology`)
	}
}

func TestExperimentDeterminism(t *testing.T) {
	// Every experiment table must be bit-identical across runs with the
	// same seed; Table 1 exercises every protocol at once.
	a := Table1DesignSpace(seed).String()
	b := Table1DesignSpace(seed).String()
	if a != b {
		t.Error("Table 1 not deterministic across runs")
	}
	// And a different seed must actually change something.
	c := Table1DesignSpace(seed + 1).String()
	if a == c {
		t.Error("Table 1 identical across different seeds")
	}
}

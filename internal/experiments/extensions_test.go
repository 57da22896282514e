package experiments

import (
	"testing"

	"repro/internal/ad"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/routeserver"
	"repro/internal/synthesis"
	"repro/internal/wire"
)

func TestE13TimeOfDay(t *testing.T) {
	tbl := E13TimeOfDay(seed)
	if len(tbl.Rows) != 8 {
		t.Fatalf("rows = %d, want 8 (3-hour steps)", len(tbl.Rows))
	}
	byHour := map[string][]string{}
	for _, row := range tbl.Rows {
		byHour[row[0]] = row
	}
	// During business hours traffic to d1 uses the cheap windowed
	// transit; at night it shifts to the expensive always-on one.
	if byHour["12:00"][1] != "day" {
		t.Errorf("noon d1 via %s, want day", byHour["12:00"][1])
	}
	if byHour["03:00"][1] != "allday" {
		t.Errorf("3am d1 via %s, want allday", byHour["03:00"][1])
	}
	// d1 stays legal around the clock.
	for _, row := range tbl.Rows {
		if row[2] != "true" {
			t.Errorf("hour %s: d1 not delivered legally", row[0])
		}
	}
	// d2 is reachable only in the night window.
	if byHour["03:00"][3] != "true" || byHour["03:00"][4] != "true" {
		t.Errorf("3am d2 row = %v, want reachable", byHour["03:00"])
	}
	if byHour["12:00"][3] != "false" || byHour["12:00"][4] != "false" {
		t.Errorf("noon d2 row = %v, want unreachable", byHour["12:00"])
	}
	// Protocol behaviour must match the oracle at every hour.
	for _, row := range tbl.Rows {
		if row[3] != row[4] {
			t.Errorf("hour %s: delivered=%s but routable=%s", row[0], row[3], row[4])
		}
	}
}

func TestE15LogicalClusterCost(t *testing.T) {
	tbl := E15LogicalClusterCost(seed)
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tbl.Rows))
	}
	first, last := tbl.Rows[0], tbl.Rows[len(tbl.Rows)-1]
	// With no source restrictions, one regime per transit: clusters ==
	// transits and no extra addresses.
	if first[1] != first[3] {
		t.Errorf("unrestricted: clusters %s != transits %s", first[3], first[1])
	}
	// Heavy restriction multiplies logical clusters and replicated FIBs.
	if parseFloat(t, last[3]) <= parseFloat(t, first[3]) {
		t.Error("clusters did not grow with restriction")
	}
	if parseFloat(t, last[5]) <= parseFloat(t, first[5]) {
		t.Error("replicated FIB rows did not grow")
	}
	// ORWG's LSDB grows far more slowly than replicated FIB rows.
	fibGrowth := parseFloat(t, last[5]) / parseFloat(t, first[5])
	lsdbGrowth := parseFloat(t, last[6]) / parseFloat(t, first[6])
	if lsdbGrowth >= fibGrowth {
		t.Errorf("LSDB growth %.2f not below FIB replication growth %.2f", lsdbGrowth, fibGrowth)
	}
}

func TestE14PolicyChange(t *testing.T) {
	tbl := E14PolicyChange(seed)
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tbl.Rows))
	}
	established := parseFloat(t, tbl.Rows[0][1])
	afterChange := parseFloat(t, tbl.Rows[1][1])
	afterResetup := parseFloat(t, tbl.Rows[2][1])
	if established == 0 {
		t.Fatal("no flows established")
	}
	if afterChange >= established {
		t.Errorf("policy restriction tore down nothing: %v -> %v", established, afterChange)
	}
	if afterResetup <= afterChange {
		t.Errorf("re-setup recovered nothing: %v -> %v", afterChange, afterResetup)
	}
	// The policy change itself must be far cheaper than establishing all
	// flows (the paper's slow-change operating assumption).
	setupMsgs := parseFloat(t, tbl.Rows[0][2])
	changeMsgs := parseFloat(t, tbl.Rows[1][2])
	if changeMsgs >= setupMsgs {
		t.Errorf("policy change cost %v >= full setup cost %v", changeMsgs, setupMsgs)
	}
}

func TestE16DatabaseDistribution(t *testing.T) {
	tbl := E16DatabaseDistribution(seed)
	byKey := map[string][]string{}
	for _, row := range tbl.Rows {
		byKey[row[0]+"/"+row[1]] = row
	}
	// Tree scoping saves traffic at initial convergence.
	classicMsgs := parseFloat(t, byKey["classic-flood/initial"][2])
	treeMsgs := parseFloat(t, byKey["tree-scoped/initial"][2])
	if treeMsgs >= classicMsgs {
		t.Errorf("tree scoping saved nothing: %v >= %v", treeMsgs, classicMsgs)
	}
	// Both reach complete LSDBs initially.
	for _, k := range []string{"classic-flood/initial", "tree-scoped/initial"} {
		if byKey[k][5] != "0" {
			t.Errorf("%s: stale LSDBs at start: %s", k, byKey[k][5])
		}
	}
	// After an on-tree failure classic reconverges; tree-scoped strands.
	if byKey["classic-flood/post-failure"][5] != "0" {
		t.Errorf("classic flooding left stale LSDBs: %s", byKey["classic-flood/post-failure"][5])
	}
	if parseFloat(t, byKey["tree-scoped/post-failure"][5]) == 0 {
		t.Error("tree scoping stranded nobody — the robustness cost did not appear")
	}
}

func TestE17SetupAmortization(t *testing.T) {
	tbl := E17SetupAmortization(seed)
	if len(tbl.Rows) < 5 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Single packet: setup overhead makes handles more expensive.
	if tbl.Rows[0][4] != "false" {
		t.Error("handle plane should lose at 1 packet")
	}
	// Long-lived routes: handles win, and the ratio decreases
	// monotonically toward the asymptotic header saving.
	last := tbl.Rows[len(tbl.Rows)-1]
	if last[4] != "true" {
		t.Error("handle plane should win at 1000 packets")
	}
	var prev float64 = 1 << 30
	for _, row := range tbl.Rows {
		r := parseFloat(t, row[3])
		if r >= prev {
			t.Errorf("ratio not decreasing: %v after %v", r, prev)
		}
		prev = r
	}
	if parseFloat(t, last[3]) >= 1 {
		t.Error("asymptotic ratio not below 1")
	}
}

func TestE18PathStretch(t *testing.T) {
	tbl := E18PathStretch(seed)
	byProto := map[string][]string{}
	for _, row := range tbl.Rows {
		byProto[row[0]] = row
	}
	// Consistent source-side synthesis is cost-optimal.
	for _, p := range []string{"orwg", "ls-hop-by-hop"} {
		if s := parseFloat(t, byProto[p][2]); s != 1 {
			t.Errorf("%s stretch = %v, want exactly 1", p, s)
		}
	}
	// The inconsistent ablation pays stretch.
	if s := parseFloat(t, byProto["lshh-inconsistent"][2]); s <= 1 {
		t.Errorf("lshh-inconsistent stretch = %v, want > 1", s)
	}
	// No protocol beats the oracle.
	for p, row := range byProto {
		if parseFloat(t, row[2]) < 1-1e-9 {
			t.Errorf("%s stretch below 1 — oracle or cost accounting broken", p)
		}
	}
}

func TestE19MultihomedStubs(t *testing.T) {
	tbl := E19MultihomedStubs(seed)
	byProto := map[string][]string{}
	for _, row := range tbl.Rows {
		byProto[row[0]] = row
	}
	// Policy-blind baselines cut through multi-homed stubs.
	blindThrough := parseFloat(t, byProto["plain-dv"][2]) + parseFloat(t, byProto["egp"][2])
	if blindThrough == 0 {
		t.Error("policy-blind baselines never cut through a multi-homed stub — scenario too easy")
	}
	// Policy-aware designs never do.
	for _, p := range []string{"ecma", "idrp", "ls-hop-by-hop", "orwg"} {
		if byProto[p][2] != "0" {
			t.Errorf("%s transited a multi-homed stub %s times", p, byProto[p][2])
		}
	}
}

func TestE20RouteServer(t *testing.T) {
	tbl := E20RouteServer(seed)
	if len(tbl.Rows) != 16 {
		t.Fatalf("rows = %d, want 16", len(tbl.Rows))
	}
	type rowKey struct{ model, churn, strategy string }
	rows := map[rowKey][]string{}
	for _, row := range tbl.Rows {
		// Every served result must agree with the oracle, and the serving
		// layer must never compute more than naive per-request synthesis.
		if row[10] != row[3] {
			t.Errorf("%s/%s/%s: oracle-ok %s of %s", row[0], row[1], row[2], row[10], row[3])
		}
		if parseFloat(t, row[4]) > parseFloat(t, row[5]) {
			t.Errorf("%s/%s/%s: served with more synthesis (%s) than naive (%s)", row[0], row[1], row[2], row[4], row[5])
		}
		rows[rowKey{row[0], row[1], row[2]}] = row
	}
	// Coalescing + caching must at least halve synthesis on the skewed
	// workload (the §5.4.1 claim), and skew must amortize better than
	// uniform demand.
	zipf := rows[rowKey{"zipf", "none", "on-demand"}]
	uniform := rows[rowKey{"uniform", "none", "on-demand"}]
	if saved := parseFloat(t, zipf[6]); saved < 2 {
		t.Errorf("zipf saved = %.3f, want >= 2", saved)
	}
	if parseFloat(t, zipf[6]) <= parseFloat(t, uniform[6]) {
		t.Error("zipf workload did not amortize better than uniform")
	}
	// Churn re-earns the cache, so it can only cost synthesis.
	if parseFloat(t, rows[rowKey{"zipf", "fail+policy", "on-demand"}][4]) <=
		parseFloat(t, zipf[4]) {
		t.Error("churn did not increase synthesis")
	}
	// The serving layer is strategy-orthogonal: every strategy needs the
	// same demand computations on the same workload.
	for _, churn := range []string{"none", "fail+policy"} {
		base := rows[rowKey{"zipf", churn, "on-demand"}][4]
		for _, s := range []string{"precomputed", "hybrid", "pruned"} {
			if got := rows[rowKey{"zipf", churn, s}][4]; got != base {
				t.Errorf("zipf/%s/%s: synth %s != on-demand %s", churn, s, got, base)
			}
		}
	}
}

func TestE21StateLifecycles(t *testing.T) {
	tbl := E21StateLifecycles(seed)
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 (2 workloads x 3 disciplines)", len(tbl.Rows))
	}
	type key struct{ model, state string }
	rows := map[key][]string{}
	for _, row := range tbl.Rows {
		// Every establishment must agree with the oracle, and every flow
		// must establish under the open policy regime.
		if row[11] != row[2] {
			t.Errorf("%s/%s: oracle-ok %s of %s", row[0], row[1], row[11], row[2])
		}
		if row[3] != row[2] {
			t.Errorf("%s/%s: only %s of %s flows established", row[0], row[1], row[3], row[2])
		}
		rows[key{row[0], row[1]}] = row
	}
	for _, model := range []string{"uniform", "zipf"} {
		hard := rows[key{model, "hard"}]
		soft := rows[key{model, "soft"}]
		capped := rows[key{model, "capped"}]
		// The §6 footprint claims: capped bounds peak state by
		// construction, soft bounds it by the live flow set (the leaked
		// wave-1 orphans expired), hard stacks both waves.
		if p := parseFloat(t, capped[4]); p > 8 {
			t.Errorf("%s: capped peak/PG %.0f exceeds capacity 8", model, p)
		}
		if parseFloat(t, capped[4]) >= parseFloat(t, hard[4]) {
			t.Errorf("%s: capped peak %s not below hard peak %s", model, capped[4], hard[4])
		}
		if parseFloat(t, soft[4]) >= parseFloat(t, hard[4]) {
			t.Errorf("%s: soft peak %s not below hard peak %s", model, soft[4], hard[4])
		}
		// Hard state leaks the abandoned orphans: more resident entries
		// than soft at the measurement point.
		if parseFloat(t, hard[5]) <= parseFloat(t, soft[5]) {
			t.Errorf("%s: hard resident %s not above soft resident %s", model, hard[5], soft[5])
		}
		// The control-overhead side: only soft pays refresh bytes.
		if parseFloat(t, soft[6]) == 0 {
			t.Errorf("%s: soft sent no refresh bytes", model)
		}
		if hard[6] != "0" || capped[6] != "0" {
			t.Errorf("%s: refresh bytes hard=%s capped=%s, want 0", model, hard[6], capped[6])
		}
		// The availability side: hard and refreshed soft deliver
		// everything; capped drops evicted live flows until re-setup.
		if parseFloat(t, hard[7]) != 1 || parseFloat(t, soft[7]) != 1 {
			t.Errorf("%s: hard/soft availability %s/%s, want 1", model, hard[7], soft[7])
		}
		if parseFloat(t, capped[7]) >= parseFloat(t, hard[7]) {
			t.Errorf("%s: capped availability %s not below hard %s", model, capped[7], hard[7])
		}
		// Failure-driven repair: the busiest-link failure queues flows
		// under every discipline, capped queues strictly more (NAKs),
		// and re-setup latency is observed whenever flows were repaired.
		if parseFloat(t, hard[8]) == 0 {
			t.Errorf("%s: link failure invalidated no hard-state flows", model)
		}
		if parseFloat(t, capped[8]) <= parseFloat(t, hard[8]) {
			t.Errorf("%s: capped repair queue %s not above hard %s", model, capped[8], hard[8])
		}
		for _, row := range []([]string){hard, soft, capped} {
			if parseFloat(t, row[9]) > 0 && parseFloat(t, row[10]) == 0 {
				t.Errorf("%s/%s: %s repairs but no re-setup latency", model, row[1], row[9])
			}
		}
	}
}

func TestE22ScopedInvalidation(t *testing.T) {
	tbl := E22ScopedInvalidation(seed)
	if len(tbl.Rows) != 8 {
		t.Fatalf("rows = %d, want 8 (2 workloads x 2 strategies x 2 modes)", len(tbl.Rows))
	}
	type key struct{ model, strategy, mode string }
	rows := map[key][]string{}
	for _, row := range tbl.Rows {
		// The retention oracle is absolute: every served route must be
		// legal under the then-current topology and policy, every no-route
		// answer verified by exhaustive search.
		if row[8] != row[3] {
			t.Errorf("%s/%s/%s: legal-ok %s of %s", row[0], row[1], row[2], row[8], row[3])
		}
		// Full mode's discard is the lazy generation bump: it never takes
		// the scoped eviction path.
		if row[2] == "full" && (row[6] != "0" || row[7] != "0") {
			t.Errorf("%s/%s/full: evicted/retained = %s/%s, want 0/0", row[0], row[1], row[6], row[7])
		}
		rows[key{row[0], row[1], row[2]}] = row
	}
	for _, model := range []string{"uniform", "zipf"} {
		for _, strategy := range []string{"on-demand", "hybrid"} {
			full := rows[key{model, strategy, "full"}]
			scoped := rows[key{model, strategy, "scoped"}]
			if full == nil || scoped == nil {
				t.Fatalf("missing rows for %s/%s", model, strategy)
			}
			// The headline claims: scoped invalidation avoids at least half
			// of the post-churn synthesis work and at least doubles the
			// retained hit rate, on every workload/strategy combination.
			fullSynth, scopedSynth := parseFloat(t, full[4]), parseFloat(t, scoped[4])
			if scopedSynth > fullSynth/2 {
				t.Errorf("%s/%s: scoped synth %.0f > half of full %.0f", model, strategy, scopedSynth, fullSynth)
			}
			fullHit, scopedHit := parseFloat(t, full[5]), parseFloat(t, scoped[5])
			if scopedHit < 2*fullHit {
				t.Errorf("%s/%s: scoped hit-rate %.3f < 2x full %.3f", model, strategy, scopedHit, fullHit)
			}
			// Scoped mode both evicts (the changes do bite) and retains
			// (most of the cache is out of any one change's footprint).
			if parseFloat(t, scoped[6]) == 0 || parseFloat(t, scoped[7]) == 0 {
				t.Errorf("%s/%s: scoped evicted/retained = %s/%s", model, strategy, scoped[6], scoped[7])
			}
			if parseFloat(t, scoped[7]) <= parseFloat(t, scoped[6]) {
				t.Errorf("%s/%s: link-local churn evicted more (%s) than it retained (%s)", model, strategy, scoped[6], scoped[7])
			}
		}
	}
}

func TestE23HAFailover(t *testing.T) {
	tbl := E23HAFailover(seed)
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 (2 workloads x 3 servers)", len(tbl.Rows))
	}
	type key struct{ model, server string }
	rows := map[key][]string{}
	for _, row := range tbl.Rows {
		// The legality oracle is absolute on every server, the promoted
		// follower included: replicated state never serves an illegal route.
		if row[6] != row[3] {
			t.Errorf("%s/%s: legal-ok %s of %s", row[0], row[1], row[6], row[3])
		}
		rows[key{row[0], row[1]}] = row
	}
	for _, model := range []string{"uniform", "zipf"} {
		warm := rows[key{model, "warm"}]
		promoted := rows[key{model, "promoted"}]
		cold := rows[key{model, "cold"}]
		if warm == nil || promoted == nil || cold == nil {
			t.Fatalf("missing rows for %s", model)
		}
		// The headline failover claim: the promoted follower keeps at least
		// half of the reference hit rate (in fact the sync barrier makes it
		// identical) and beats the cold restart outright.
		warmHit, promHit, coldHit := parseFloat(t, warm[5]), parseFloat(t, promoted[5]), parseFloat(t, cold[5])
		if promHit < warmHit/2 {
			t.Errorf("%s: promoted hit-rate %.3f below half of warm %.3f", model, promHit, warmHit)
		}
		if promHit <= coldHit {
			t.Errorf("%s: promoted hit-rate %.3f not above cold restart %.3f", model, promHit, coldHit)
		}
		// The cache column shows why: replication hands the follower a warm
		// cache, the restart starts empty and pays for it in synthesis.
		if parseFloat(t, promoted[2]) == 0 {
			t.Errorf("%s: promoted follower's cache is empty", model)
		}
		if cold[2] != "0" {
			t.Errorf("%s: cold restart cache = %s, want 0", model, cold[2])
		}
		if parseFloat(t, cold[4]) <= parseFloat(t, warm[4]) {
			t.Errorf("%s: cold synth %s not above warm %s", model, cold[4], warm[4])
		}
	}
}

func TestE24PGStateScale(t *testing.T) {
	tbl := E24PGStateScale(seed)
	if len(tbl.Rows) != 1 {
		t.Fatalf("rows = %d, want 1 (the Table against the Reference)", len(tbl.Rows))
	}
	row := tbl.Rows[0]
	// The headline claim: the table tracked the retained scan-based
	// reference exactly — per-sweep expiry sets, final stats, final
	// length. A "no" here means the table changed observable semantics.
	if row[8] != "yes" {
		t.Error("table diverged from reference")
	}
	// Every cohort expires by the last sweep.
	if row[2] != row[0] {
		t.Errorf("expired %s of %s handles", row[2], row[0])
	}
	if row[7] != row[0] {
		t.Errorf("peak %s, want %s (install-before-sweep workload)", row[7], row[0])
	}
	// The wheel's whole point: entries visited scale with due handles
	// (plus bounded cascade traffic), far under the reference's full
	// scans over the same sweeps.
	wheel, scan := parseFloat(t, row[3]), parseFloat(t, row[5])
	if wheel >= scan*0.7 {
		t.Errorf("wheel visited %.0f entries, not clearly under %.0f scanned", wheel, scan)
	}
}

func TestE25PlanEngine(t *testing.T) {
	tbl := E25PlanEngine(seed)
	if len(tbl.Rows) != 12 {
		t.Fatalf("rows = %d, want 12 (2 workloads x 6 events)", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		// The headline claim: every prediction matched the committed
		// outcome set-for-set, oracle-verified. Any "no" means the plan
		// engine's model of the serving layer diverged from the real thing.
		if row[9] != "yes" {
			t.Errorf("%s/%s: plan diverged from committed reality", row[0], row[1])
		}
		// Count columns must agree pairwise too (redundant with exact, but
		// it localizes a failure to the column that moved).
		for _, c := range [][2]int{{2, 3}, {4, 5}, {6, 7}} {
			if row[c[0]] != row[c[1]] {
				t.Errorf("%s/%s: predicted %s, observed %s", row[0], row[1], row[c[0]], row[c[1]])
			}
		}
		// The re-synthesis bill is one synthesis per evicted key.
		if row[8] != row[2] {
			t.Errorf("%s/%s: resynth %s != pred-evict %s", row[0], row[1], row[8], row[2])
		}
		// Every event in the timeline bites the cache: a plan predicting
		// zero blast radius for link/policy churn would be vacuous.
		if row[2] == "0" {
			t.Errorf("%s/%s: event evicted nothing", row[0], row[1])
		}
	}
	for m := 0; m < 2; m++ {
		rows := tbl.Rows[m*6 : (m+1)*6]
		// The third event strands a flow-carrying single-homed stub: it
		// must predict (and observe) both teardowns and lost pairs.
		if parseFloat(t, rows[2][4]) == 0 {
			t.Errorf("%s: stub-uplink failure tore down no flows", rows[2][0])
		}
		if parseFloat(t, rows[2][6]) == 0 {
			t.Errorf("%s: stub-uplink failure lost no pairs", rows[2][0])
		}
		// Restoring it brings every stranded pair back.
		if rows[4][6] != "0" {
			t.Errorf("%s: restore still loses %s pairs", rows[4][0], rows[4][6])
		}
	}
}

// plantedStrategy answers as its embedded strategy does, except that it
// answers the request refuse with no route and the request plant with the
// one-hop path from its source to its destination.
type plantedStrategy struct {
	synthesis.Strategy
	refuse, plant policy.Request
}

func (s plantedStrategy) Route(req policy.Request) (ad.Path, bool) {
	switch req {
	case s.refuse:
		return nil, false
	case s.plant:
		return ad.Path{req.Src, req.Dst}, true
	}
	return s.Strategy.Route(req)
}

// TestReplayChecksEveryAnswer holds replay's oracle check to something a
// wrong server fails: every legal-ok cell of E22 and E23 equals churn-reqs,
// which a check that always said yes would match too. Behind a strategy
// that refuses a request with a legal route and plants a path over a link
// the graph does not have, exactly those answers fail; the rest pass.
func TestReplayChecksEveryAnswer(t *testing.T) {
	g := defaultTopology(seed).Graph
	db := e22Policy(g, seed)
	oracle := core.NewOracle(g, db)
	workload := servingWorkload(g, seed+2, churnSlice, "uniform")
	var refuse, plant *policy.Request
	for i, req := range workload {
		switch {
		case !oracle.HasRoute(req):
		case refuse == nil:
			refuse = &workload[i]
		case plant == nil && *refuse != req && !g.HasLink(req.Src, req.Dst):
			plant = &workload[i]
		}
	}
	if plant == nil {
		t.Fatal("the workload has fewer than two routable requests")
	}
	wrong := 0
	for _, req := range workload {
		if req == *refuse || req == *plant {
			wrong++
		}
	}
	srv := routeserver.New(plantedStrategy{synthesis.NewOnDemand(g, db), *refuse, *plant}, routeserver.Config{})
	applied := 0
	reqs, _, _, legal := replay(srv, synthesis.NewWorld(g, db), workload, []wire.PlanStep{{}}, 0,
		func(wire.PlanStep) { applied++ })
	if applied != 1 || reqs != churnSlice || legal != reqs-wrong {
		t.Errorf("replay applied %d ops and passed %d of %d answers; want 1 op and %d passed (%d planted answers)",
			applied, legal, reqs, reqs-wrong, wrong)
	}
}

package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ad"
	"repro/internal/pgstate"
	"repro/internal/policy"
	"repro/internal/routeserver"
	"repro/internal/routeserver/daemon"
	"repro/internal/sim"
	"repro/internal/synthesis"
	"repro/internal/wire"
)

func testWorld(t *testing.T) (*ad.Graph, *policy.DB, *routeserver.Server, *routeserver.DataPlane) {
	t.Helper()
	g := ad.NewGraph()
	src := g.AddAD("src", ad.Stub, ad.Campus)
	t1 := g.AddAD("t1", ad.Transit, ad.Regional)
	t2 := g.AddAD("t2", ad.Transit, ad.Regional)
	dst := g.AddAD("dst", ad.Stub, ad.Campus)
	for _, l := range []ad.Link{
		{A: src, B: t1, Cost: 1}, {A: t1, B: dst, Cost: 1},
		{A: src, B: t2, Cost: 5}, {A: t2, B: dst, Cost: 5},
	} {
		if err := g.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	db := policy.OpenDB(g)
	srv := routeserver.New(synthesis.NewOnDemand(g, db), routeserver.Config{})
	dp, err := routeserver.NewDataPlane(pgstate.Config{Kind: pgstate.Soft, TTL: 30 * sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	return g, db, srv, dp
}

// session scripts a full line-mode conversation and returns the output.
func session(t *testing.T, input string) string {
	t.Helper()
	g, db, srv, dp := testWorld(t)
	var out strings.Builder
	if err := serve(strings.NewReader(input), &out, local(daemon.NewBackend(srv, dp, g, db))); err != nil {
		t.Fatalf("serve: %v", err)
	}
	return out.String()
}

func TestServeQueryAndCommands(t *testing.T) {
	out := session(t, `
# comment lines and blanks are skipped

1 4
99 98
stats
bogus one
quit
1 4
`)
	if !strings.Contains(out, "AD1>AD2>AD4") {
		t.Errorf("query did not serve the cheap route:\n%s", out)
	}
	if !strings.Contains(out, "no-route") {
		t.Errorf("unroutable pair not reported:\n%s", out)
	}
	if !strings.Contains(out, "gen 0: 2 queries") {
		t.Errorf("stats line wrong:\n%s", out)
	}
	if !strings.Contains(out, "bad number") {
		t.Errorf("bad query not rejected:\n%s", out)
	}
	// quit stops the session: the trailing query is never answered.
	if strings.Count(out, "AD1>AD2>AD4") != 1 {
		t.Errorf("session did not stop at quit:\n%s", out)
	}
}

func TestServeFailRestoreReroutes(t *testing.T) {
	out := session(t, `
1 4
fail 2 4
1 4
restore 2 4
1 4
invalidate
1 4
fail 9 9
restore 9 9
fail x y
`)
	// Cheap route before the failure, detour during. The restore is scoped:
	// the detour is still legal, so it keeps serving (retained, no longer
	// optimal) until "invalidate" forces the full bump and the cheap route
	// returns.
	if strings.Count(out, "AD1>AD2>AD4") != 2 || strings.Count(out, "AD1>AD3>AD4") != 2 {
		t.Errorf("fail/restore/invalidate sequence wrong:\n%s", out)
	}
	if !strings.Contains(out, "ok (evicted 1, retained 0)") {
		t.Errorf("fail did not report a scoped eviction:\n%s", out)
	}
	if !strings.Contains(out, "ok (evicted 0, retained 1)") {
		t.Errorf("restore did not retain the detour:\n%s", out)
	}
	if !strings.Contains(out, "ok (gen 1)") {
		t.Errorf("invalidate did not bump the generation:\n%s", out)
	}
	if !strings.Contains(out, "no link") {
		t.Errorf("failing a nonexistent link not reported:\n%s", out)
	}
	if !strings.Contains(out, "was not failed here") {
		t.Errorf("restoring an unfailed link not reported:\n%s", out)
	}
	if !strings.Contains(out, "usage: fail") {
		t.Errorf("bad fail args not reported:\n%s", out)
	}
}

func TestServePolicyCommand(t *testing.T) {
	// Making t1 expensive flips the served route to t2.
	out := session(t, `
1 4
policy 2 100
1 4
policy
`)
	if !strings.Contains(out, "AD1>AD2>AD4") || !strings.Contains(out, "AD1>AD3>AD4") {
		t.Errorf("policy change did not reroute:\n%s", out)
	}
	if !strings.Contains(out, "usage: policy") {
		t.Errorf("bad policy args not reported:\n%s", out)
	}
}

func TestServeDataPlaneLifecycle(t *testing.T) {
	out := session(t, `
install 1 4
send 1
refresh
tick 10
send 1
tick 100
send 1
state
install 99 98
send nope
send 12345
`)
	checks := []string{
		"handle 1 via AD1>AD2>AD4",
		"delivered",
		"refreshed 1 flows, 0 lost state",
		"t=10s, 0 entries expired",
		// 100s with no refresh: all three entries expire, flow abandoned.
		"entries expired",
		"unknown handle 1",
		"flows 0",
		"no-route",
		"bad handle",
		"unknown handle 12345",
	}
	for _, want := range checks {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestServeFailureRepairFlow(t *testing.T) {
	out := session(t, `
install 1 4
fail 2 4
send 1
repair
state
`)
	for _, want := range []string{
		"handle 1 via AD1>AD2>AD4",
		"flushed 3 handle entries",
		"repaired 1/1 flows",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestParseQuery(t *testing.T) {
	req, err := parseQuery([]string{"1", "2", "3", "4", "5"})
	if err != nil {
		t.Fatal(err)
	}
	want := policy.Request{Src: 1, Dst: 2, QOS: 3, UCI: 4, Hour: 5}
	if req != want {
		t.Errorf("parsed %+v, want %+v", req, want)
	}
	for _, bad := range [][]string{{"1"}, {"1", "2", "3", "4", "5", "6"}, {"1", "x"}} {
		if _, err := parseQuery(bad); err == nil {
			t.Errorf("parseQuery(%v) accepted", bad)
		}
	}
	// QOS and UCI are one byte each and HOUR is an hour of day: a larger value
	// must be refused, not folded into another request's answer (hour 268 used
	// to be served, and cached, as hour 12; hour 36 was answered as hour 12 and
	// cached beside it).
	for _, bad := range [][]string{{"1", "4", "256"}, {"1", "4", "0", "300"}, {"1", "4", "0", "0", "268"},
		{"1", "2", "0", "0", "36"}, {"1", "2", "0", "0", "24"}} {
		if _, err := parseQuery(bad); err == nil || !strings.Contains(err.Error(), "bad number") {
			t.Errorf("parseQuery(%v) = %v, want a bad-number error", bad, err)
		}
	}
	if req, err := parseQuery([]string{"4294967295", "4", "255", "255", "23"}); err != nil || req.Src != 1<<32-1 || req.Hour != 23 {
		t.Errorf("parseQuery at the field maxima = %+v, %v", req, err)
	}
}

func TestTwoIDs(t *testing.T) {
	if a, b, ok := twoIDs([]string{"3", "9"}); !ok || a != 3 || b != 9 {
		t.Errorf("twoIDs = %v %v %v", a, b, ok)
	}
	for _, bad := range [][]string{{}, {"1"}, {"1", "2", "3"}, {"x", "2"}} {
		if _, _, ok := twoIDs(bad); ok {
			t.Errorf("twoIDs(%v) accepted", bad)
		}
	}
}

func TestParsePlanSteps(t *testing.T) {
	steps, err := parsePlanSteps("fail 2 4; policy 7 10 ;restore 2 4")
	if err != nil {
		t.Fatal(err)
	}
	want := []wire.PlanStep{
		{Op: wire.CtlFail, A: 2, B: 4},
		wire.OpenPolicy(7, 10),
		{Op: wire.CtlRestore, A: 2, B: 4},
	}
	if len(steps) != len(want) {
		t.Fatalf("parsed %d steps, want %d", len(steps), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(steps[i], want[i]) {
			t.Errorf("step %d: %+v, want %+v", i, steps[i], want[i])
		}
	}
	for _, bad := range []string{"", ";", "fail 2", "policy x 1", "drop 2 4", "fail 2 4; bogus"} {
		if _, err := parsePlanSteps(bad); err == nil {
			t.Errorf("parsePlanSteps(%q) accepted", bad)
		}
	}
}

func TestValidateFlags(t *testing.T) {
	ok := []flagCoherence{
		{},                        // plain line mode
		{Load: true, Churn: true}, // local load run
		{Load: true, Connect: "h:1", ReconnectEvery: 5},            // network load
		{Load: true, Connect: "h:1,h:2"},                           // network load over a replica set
		{Connect: "h:1"},                                           // remote line mode
		{Connect: "/tmp/sock"},                                     // remote line mode, unix socket
		{Listen: ":0"},                                             // standalone daemon
		{Listen: ":0", ReplicaID: 1, Peers: "1@a@b", ReplicaOf: 1}, // HA daemon
	}
	for _, f := range ok {
		if err := validateFlags(f); err != nil {
			t.Errorf("validateFlags(%+v) rejected a coherent set: %v", f, err)
		}
	}
	bad := []flagCoherence{
		{Connect: "h:1,h:2"},                // a replica set without the load harness's failover
		{Connect: "h:1", Listen: ":0"},      // a daemon's client and a daemon at once
		{Connect: "h:1", Unix: "/s"},        // likewise on a unix socket
		{Load: true, ReconnectEvery: 5},     // -reconnect-every without -connect
		{Connect: "h:1", ReconnectEvery: 5}, // -reconnect-every in remote line mode
		{Churn: true},                       // -churn without -load
		{Load: true, Listen: ":0"},          // load generator and daemon at once
		{ReplicaID: 1, Peers: "1@a@b"},      // HA flags outside daemon mode
		{Listen: ":0", ReplicaID: 1},        // -replica-id without -peers
		{Listen: ":0", Peers: "1@a@b"},      // -peers without -replica-id
		{Listen: ":0", ReplicaOf: 2},        // -replica-of without -replica-id
	}
	for _, f := range bad {
		if err := validateFlags(f); err == nil {
			t.Errorf("validateFlags(%+v) accepted an incoherent set", f)
		}
	}
}

func TestChurnOpsPreferLateral(t *testing.T) {
	g := ad.NewGraph()
	a := g.AddAD("a", ad.Transit, ad.Backbone)
	b := g.AddAD("b", ad.Transit, ad.Regional)
	c := g.AddAD("c", ad.Transit, ad.Regional)
	if err := g.AddLink(ad.Link{A: a, B: b, Class: ad.Hierarchical}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(ad.Link{A: b, B: c, Class: ad.Lateral}); err != nil {
		t.Fatal(err)
	}
	evs := churnOps(g)
	if len(evs) != 2 {
		t.Fatalf("%d events", len(evs))
	}
	if label := evs[0].Op.String(); !strings.Contains(label, "AD2") || !strings.Contains(label, "AD3") {
		t.Errorf("churn did not pick the lateral link: %q", label)
	}
	fail, restore := evs[0].Op, evs[1].Op
	if fail.Op != wire.CtlFail || restore.Op != wire.CtlRestore || restore.A != fail.A || restore.B != fail.B ||
		!(evs[0].After < evs[1].After) {
		t.Errorf("churn is not a fail then a restore of one link: %+v", evs)
	}
	if churnOps(ad.NewGraph()) != nil {
		t.Error("empty graph produced churn ops")
	}
}

func TestPrintReportAndWriteJSON(t *testing.T) {
	_, _, srv, _ := testWorld(t)
	workload := []policy.Request{{Src: 1, Dst: 4}, {Src: 1, Dst: 4}, {Src: 4, Dst: 1}}
	rep := routeserver.Run(routeserver.InProcess(srv), workload, routeserver.LoadConfig{
		Clients: 2,
		Events:  []routeserver.Event{{After: 0.5, Fire: func() error { return errors.New("refused") }}},
	})
	// One report, one printer, one writer: the generator's part always, the
	// server's block when the run was in process (srv non-nil).
	generator := []string{"requests", "served", "no_route", "errors", "event_errors", "reconnects",
		"reconnect_failures", "redirects", "max_stall_ns", "elapsed_ns", "qps",
		"latency_p50", "latency_p95", "latency_p99"}
	server := []string{"strategy", "hits", "coalesced", "misses", "hit_rate", "invalidations",
		"scoped_mutations", "scoped_evicted", "scoped_retained", "evictions"}
	for _, tc := range []struct {
		srv        *routeserver.Server
		lines      []string
		keys, none []string
	}{
		{srv, []string{"strategy", "requests    3 (3 served, 0 no-route, 0 errors)", "latency", "event 1: refused", "cache", "synthesis"},
			append(generator, server...), nil},
		{nil, []string{"requests    3", "latency", "conns", "stall", "event 1: refused"}, generator, server},
	} {
		var out strings.Builder
		printReport(&out, rep, tc.srv)
		for _, want := range tc.lines {
			if !strings.Contains(out.String(), want) {
				t.Errorf("report missing %q:\n%s", want, out.String())
			}
		}
		if tc.srv == nil && strings.Contains(out.String(), "cache") {
			t.Errorf("wire report carries a server block:\n%s", out.String())
		}
		path := filepath.Join(t.TempDir(), "bench.json")
		if err := writeJSON(path, rep, tc.srv); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		if m["requests"] != float64(3) || m["event_errors"] != float64(1) {
			t.Errorf("json requests = %v, event_errors = %v", m["requests"], m["event_errors"])
		}
		for _, k := range tc.keys {
			if _, ok := m[k]; !ok {
				t.Errorf("json lacks %q", k)
			}
		}
		for _, k := range tc.none {
			if _, ok := m[k]; ok {
				t.Errorf("wire json carries server key %q", k)
			}
		}
	}
}

func TestBuildStrategyKinds(t *testing.T) {
	g, db, _, _ := testWorld(t)
	workload := []policy.Request{{Src: 1, Dst: 4}}
	for _, kind := range []string{"on-demand", "precomputed", "hybrid", "pruned"} {
		st, err := synthesis.New(kind, g, db, workload, 1, 1)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if path, found := st.Route(policy.Request{Src: 1, Dst: 4}); !found || len(path) == 0 {
			t.Errorf("%s: no route served", kind)
		}
	}
	if _, err := synthesis.New("fastest", g, db, workload, 1, 1); err == nil {
		t.Error("unknown strategy name accepted")
	}
}

package scenario

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/policy"
	"repro/internal/protocols"
	"repro/internal/protocols/orwg"
	"repro/internal/sim"
	"repro/internal/wire"
)

func run(t *testing.T, js string) string {
	t.Helper()
	sc, err := Load(strings.NewReader(js))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	var out bytes.Buffer
	if err := sc.Run(&out); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return out.String()
}

func TestFigure1OpenORWG(t *testing.T) {
	out := run(t, `{
		"name": "fig1-open",
		"topology": {"figure1": true},
		"policy": {"open": true},
		"protocol": {"name": "orwg"},
		"requests": {"all_stub_pairs": true}
	}`)
	if !strings.Contains(out, "fig1-open — orwg") {
		t.Errorf("title missing:\n%s", out)
	}
	if !strings.Contains(out, "initial") || !strings.Contains(out, "1.000") {
		t.Errorf("initial full availability missing:\n%s", out)
	}
}

func TestGeneratedWithEvents(t *testing.T) {
	out := run(t, `{
		"topology": {"generate": {"Seed": 5, "LateralProb": 0.3}},
		"policy": {"open": true},
		"protocol": {"name": "ecma"},
		"events": [
			{"action": "fail", "a": 3, "b": 1},
			{"action": "restore", "a": 3, "b": 1}
		],
		"requests": {"all_stub_pairs": true}
	}`)
	for _, want := range []string{"initial", "fail AD3-AD1", "restore AD3-AD1"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestExplicitTermsAndRequests(t *testing.T) {
	// Figure 1 IDs: 1,2 backbones; 3,4,5 regionals; 6..10 campuses.
	out := run(t, `{
		"topology": {"figure1": true},
		"policy": {"terms": [
			{"advertiser": 1}, {"advertiser": 2},
			{"advertiser": 3, "sources": [6, 7]},
			{"advertiser": 4}, {"advertiser": 5}
		]},
		"protocol": {"name": "orwg"},
		"requests": {"explicit": [
			{"src": 6, "dst": 9},
			{"src": 7, "dst": 10}
		]}
	}`)
	if !strings.Contains(out, "initial") {
		t.Errorf("report missing:\n%s", out)
	}
}

func TestUpdatePolicyEvent(t *testing.T) {
	out := run(t, `{
		"topology": {"figure1": true},
		"policy": {"open": true},
		"protocol": {"name": "orwg"},
		"events": [
			{"action": "update-policy", "ad": 3, "terms": [
				{"advertiser": 3, "sources": [6]}
			]}
		],
		"requests": {"all_stub_pairs": true}
	}`)
	if !strings.Contains(out, "update-policy AD3 (1 terms)") {
		t.Errorf("update-policy phase missing:\n%s", out)
	}
}

func TestUpdatePolicyRequiresORWG(t *testing.T) {
	sc, err := Load(strings.NewReader(`{
		"topology": {"figure1": true},
		"policy": {"open": true},
		"protocol": {"name": "ecma"},
		"events": [{"action": "update-policy", "ad": 3}],
		"requests": {"all_stub_pairs": true}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := sc.Run(&out); err == nil {
		t.Error("update-policy under ecma did not error")
	}
}

// TestAllProtocolsRunnable: every design of the registry runs from its bare
// name, a link failure included, as the system its own Table 1 constructor
// builds: the scenario format has no knob to build a variant.
func TestAllProtocolsRunnable(t *testing.T) {
	for _, d := range protocols.Designs {
		sc, err := Load(strings.NewReader(`{
			"topology": {"figure1": true},
			"policy": {"open": true},
			"protocol": {"name": "` + d.Name + `"},
			"events": [{"action": "fail", "a": 4, "b": 5}],
			"requests": {"all_stub_pairs": true}
		}`))
		if err != nil {
			t.Fatalf("%s: Load: %v", d.Name, err)
		}
		g, db, sys, _, err := sc.build()
		if err != nil {
			t.Fatalf("%s: build: %v", d.Name, err)
		}
		if want := d.New(g, db).Name(); sys.Name() != want {
			t.Errorf("%s: built %s, want %s", d.Name, sys.Name(), want)
		}
		var out bytes.Buffer
		if err := sc.Run(&out); err != nil {
			t.Fatalf("%s: Run: %v", d.Name, err)
		}
		if !strings.Contains(out.String(), "initial") || !strings.Contains(out.String(), "fail AD4-AD5") {
			t.Errorf("%s: no report", d.Name)
		}
	}
}

func TestLoadErrors(t *testing.T) {
	cases := []string{
		`not json`,
		`{"unknown_field": 1}`,
		`{"topology": {}, "policy": {"open": true}, "protocol": {"name": "orwg"}, "requests": {"all_pairs": true}}`,
		`{"topology": {"figure1": true}, "policy": {}, "protocol": {"name": "orwg"}, "requests": {"all_pairs": true}}`,
		`{"topology": {"figure1": true}, "policy": {"open": true}, "protocol": {"name": "nope"}, "requests": {"all_pairs": true}}`,
		`{"topology": {"figure1": true}, "policy": {"open": true}, "protocol": {"name": "orwg"}, "requests": {}}`,
		`{"topology": {"figure1": true}, "policy": {"terms": [{"advertiser": 1, "sources": "x"}]}, "protocol": {"name": "orwg"}, "requests": {"all_pairs": true}}`,
		// The protocol takes no seed: nothing in a simulation draws from one.
		`{"topology": {"figure1": true}, "policy": {"open": true}, "protocol": {"name": "orwg", "seed": 1}, "requests": {"all_pairs": true}}`,
		// A second value after a valid scenario is not silently dropped.
		`{"topology": {"figure1": true}, "policy": {"open": true}, "protocol": {"name": "orwg"}, "requests": {"explicit": [{"src": 1, "dst": 2}]}} {"bogus": 1} trailing junk`,
	}
	for i, js := range cases {
		sc, err := Load(strings.NewReader(js))
		if err != nil {
			continue // parse-time rejection is fine
		}
		var out bytes.Buffer
		if err := sc.Run(&out); err == nil {
			t.Errorf("case %d: no error", i)
		}
	}
}

func TestBadEventAction(t *testing.T) {
	sc, err := Load(strings.NewReader(`{
		"topology": {"figure1": true},
		"policy": {"open": true},
		"protocol": {"name": "orwg"},
		"events": [{"action": "explode"}],
		"requests": {"all_pairs": true}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := sc.Run(&out); err == nil {
		t.Error("unknown action did not error")
	}
}

func TestPlanEvent(t *testing.T) {
	out := run(t, `{
		"topology": {"figure1": true},
		"policy": {"open": true},
		"protocol": {"name": "orwg"},
		"events": [
			{"action": "plan", "steps": [
				{"action": "fail", "a": 4, "b": 5},
				{"action": "policy", "ad": 1, "cost": 5},
				{"action": "restore", "a": 4, "b": 5}
			], "assert": {"max_lost": 0, "min_gained": 0, "max_unroutable_after": 0}}
		],
		"requests": {"all_stub_pairs": true}
	}`)
	if !strings.Contains(out, "plan (3 steps): 0 gained, 0 lost, 0 unroutable after") {
		t.Errorf("plan note missing:\n%s", out)
	}
	// A plan mutates nothing: exactly one phase row (initial) is rendered.
	if strings.Count(out, "initial") != 1 || strings.Contains(out, "event 1: plan\n") {
		t.Errorf("plan produced a phase row:\n%s", out)
	}
}

func TestPlanEventAssertViolation(t *testing.T) {
	// Stranding campus-1 (its only link is to regional-3) must trip
	// max_lost 0.
	sc, err := Load(strings.NewReader(`{
		"topology": {"figure1": true},
		"policy": {"open": true},
		"protocol": {"name": "orwg"},
		"events": [
			{"action": "plan", "steps": [{"action": "fail", "a": 6, "b": 3}],
			 "assert": {"max_lost": 0}}
		],
		"requests": {"all_stub_pairs": true}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := sc.Run(&out); err == nil || !strings.Contains(err.Error(), "max_lost") {
		t.Errorf("assert violation: err = %v", err)
	}
}

// TestPlanStepUpdatePolicy: a plan step may install a term list — the event
// and the step share one mapping to a control op — and the prediction sees
// it: once AD3 carries sources 6 and 7 only, AD6 (whose only link is to AD3)
// is lost to every other stub, which max_lost 0 must catch.
func TestPlanStepUpdatePolicy(t *testing.T) {
	sc, err := Load(strings.NewReader(`{
		"topology": {"figure1": true},
		"policy": {"open": true},
		"protocol": {"name": "orwg"},
		"events": [
			{"action": "plan", "steps": [
				{"action": "update-policy", "ad": 3, "terms": [{"advertiser": 3, "sources": [6, 7]}]}
			], "assert": {"max_lost": 0}}
		],
		"requests": {"all_stub_pairs": true}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := sc.Run(&out); err == nil || !strings.Contains(err.Error(), "pairs lost, assert max_lost 0") {
		t.Errorf("plan with an update-policy step: err = %v, want the max_lost violation", err)
	}
}

// TestOps pins the timeline a route-serving front end fires: one control op
// per mutating event, in order, update-policy carrying its term list and
// kill-primary spelled "invalidate"; plan events compile to nothing. A
// timeline the live control plane would refuse is refused here, with the
// resolver's own message.
func TestOps(t *testing.T) {
	load := func(events string) ([]wire.PlanStep, error) {
		sc, err := Load(strings.NewReader(`{
			"topology": {"figure1": true},
			"policy": {"open": true},
			"protocol": {"name": "orwg"},
			"events": [` + events + `],
			"requests": {"all_stub_pairs": true}
		}`))
		if err != nil {
			t.Fatalf("%s: Load: %v", events, err)
		}
		g, db, _, err := sc.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		return sc.Ops(g, db)
	}

	ops, err := load(`
		{"action": "fail", "a": 4, "b": 5},
		{"action": "plan", "steps": [{"action": "fail", "a": 1, "b": 2}]},
		{"action": "update-policy", "ad": 4, "terms": [{"advertiser": 4, "sources": [6, 7, 8], "cost": 2}, {"advertiser": 4, "hour_start": 22, "hour_end": 6}]},
		{"action": "update-policy", "ad": 5},
		{"action": "kill-primary"},
		{"action": "restore", "a": 4, "b": 5}`)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, op := range ops {
		got = append(got, op.String())
	}
	want := "fail AD4-AD5, policy AD4 (2 terms), policy AD5 (0 terms), invalidate, restore AD4-AD5"
	if strings.Join(got, ", ") != want {
		t.Errorf("ops = %v, want %s", got, want)
	}
	if t0 := ops[1].Terms[0]; !t0.Sources.Equal(policy.SetOf(6, 7, 8)) || t0.Cost != 2 ||
		ops[1].Terms[1].Hours != (policy.HourWindow{Start: 22, End: 6}) {
		t.Errorf("update-policy terms = %+v", ops[1].Terms)
	}

	for events, want := range map[string]string{
		`{"action": "fail", "a": 1, "b": 9999}`:                                                                 "scenario: event 1: no link AD1-AD9999",
		`{"action": "fail", "a": 4, "b": 5}, {"action": "fail", "a": 5, "b": 4}`:                                "scenario: event 2: no link AD5-AD4",
		`{"action": "restore", "a": 1, "b": 2}`:                                                                 "scenario: event 1: link AD1-AD2 was not failed here",
		`{"action": "update-policy", "ad": 99, "terms": [{"advertiser": 99}]}`:                                  "scenario: event 1: unknown AD AD99",
		`{"action": "explode"}`:                                                                                 `scenario: event 1: unknown action "explode"`,
		`{"action": "policy", "ad": 1, "cost": 5}`:                                                              `scenario: event 1: unknown action "policy"`,
		`{"action": "plan", "steps": [{"action": "kill-primary"}]}`:                                             `scenario: event 1 step 1: unknown plan step action "kill-primary"`,
		`{"action": "plan", "steps": [{"action": "update-policy", "ad": 99}]}`:                                  "scenario: event 1 step 1: unknown AD AD99",
		`{"action": "fail", "a": 4, "b": 5}, {"action": "plan", "steps": [{"action": "fail", "a": 4, "b": 5}]}`: "",
	} {
		_, err := load(events)
		if (err == nil) != (want == "") || (err != nil && err.Error() != want) {
			t.Errorf("%s: Ops err = %v, want %q", events, err, want)
		}
	}
}

func TestPlanEventValidation(t *testing.T) {
	cases := []struct {
		event string
		want  string
	}{
		{`{"action": "plan"}`, "at least one step"},
		{`{"action": "plan", "steps": [{"action": "fail", "a": 1, "b": 6}]}`, "no link"},
		{`{"action": "plan", "steps": [{"action": "restore", "a": 1, "b": 2}]}`, "was not failed here"},
		{`{"action": "plan", "steps": [{"action": "policy", "ad": 99}]}`, "unknown AD"},
		{`{"action": "plan", "steps": [{"action": "explode"}]}`, "unknown plan step action"},
		{`{"action": "plan", "steps": [{"action": "policy", "ad": 1}], "assert": {"max_lost": -1}}`, "must be >= 0"},
	}
	for _, tc := range cases {
		sc, err := Load(strings.NewReader(`{
			"topology": {"figure1": true},
			"policy": {"open": true},
			"protocol": {"name": "orwg"},
			"events": [` + tc.event + `],
			"requests": {"all_stub_pairs": true}
		}`))
		if err != nil {
			t.Fatalf("%s: Load: %v", tc.event, err)
		}
		g, db, _, err := sc.Materialize()
		if err != nil {
			t.Fatalf("%s: Materialize: %v", tc.event, err)
		}
		if _, err := sc.Ops(g, db); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Ops err = %v, want %q", tc.event, err, tc.want)
		}
	}
}

func TestADSetSpecRoundTrip(t *testing.T) {
	var s ADSetSpec
	if err := s.UnmarshalJSON([]byte(`"*"`)); err != nil {
		t.Fatal(err)
	}
	if !s.toADSet().IsUniversal() {
		t.Error("star not universal")
	}
	if err := s.UnmarshalJSON([]byte(`[1,2,3]`)); err != nil {
		t.Fatal(err)
	}
	set := s.toADSet()
	if set.IsUniversal() || !set.Contains(2) || set.Contains(4) {
		t.Errorf("list set wrong: %v", set)
	}
	if err := s.UnmarshalJSON([]byte(`"all"`)); err == nil {
		t.Error("bad string accepted")
	}
	// The zero value (an omitted set) means universal.
	var zero ADSetSpec
	if !zero.toADSet().IsUniversal() {
		t.Error("zero value not universal")
	}
}

func TestTermSpecDefaults(t *testing.T) {
	ts := TermSpec{Advertiser: 5}
	term := ts.toTerm()
	if term.Cost != 1 {
		t.Errorf("default cost = %d", term.Cost)
	}
	if !term.Sources.IsUniversal() || term.Hours != policy.Always {
		t.Error("defaults not open")
	}
	start, end := uint8(9), uint8(17)
	ts2 := TermSpec{Advertiser: 5, QOS: []uint8{0, 2}, HourStart: &start, HourEnd: &end, Cost: 7}
	term2 := ts2.toTerm()
	if !term2.QOS.Contains(2) || term2.QOS.Contains(1) {
		t.Error("QOS classes wrong")
	}
	if term2.Hours.Start != 9 || term2.Hours.End != 17 || term2.Cost != 7 {
		t.Errorf("term2 = %+v", term2)
	}
}

// TestORWGProtocolKeys checks that cache_capacity gives every policy gateway
// a capped handle table of that size and is refused when negative or on any
// other design, and that a "strategy" key is refused: ORWG's route server is a search
// over its LSDB view, with nothing to pick.
func TestORWGProtocolKeys(t *testing.T) {
	const js = `{"topology": {"figure1": true}, "policy": {"open": true},
		"protocol": {"name": "orwg", %s}, "requests": {"all_stub_pairs": true}}`
	// The ablation knobs are gone from the format: each is measured by the
	// experiment that builds its variant, and a file naming one is refused.
	for _, key := range []string{"strategy", "split_horizon", "multi_route", "qos_classes",
		"disable_ordering", "timeout_ms", "max_candidates", "no_fallback"} {
		if _, err := Load(strings.NewReader(fmt.Sprintf(js, `"`+key+`": 1`))); err == nil ||
			!strings.Contains(err.Error(), `unknown field "`+key+`"`) {
			t.Errorf("Load with a %s key: err = %v, want an unknown-field error", key, err)
		}
	}
	if _, err := Load(strings.NewReader(fmt.Sprintf(js, `"cache_capacity": -3`))); err == nil ||
		!strings.Contains(err.Error(), "cache_capacity must be positive") {
		t.Errorf("Load with a negative cache_capacity: err = %v, want a refusal", err)
	}
	for _, d := range protocols.Designs {
		if d.Name == "orwg" {
			continue
		}
		_, err := Load(strings.NewReader(strings.Replace(fmt.Sprintf(js, `"cache_capacity": 3`), `"orwg"`, `"`+d.Name+`"`, 1)))
		if err == nil || !strings.Contains(err.Error(), "cache_capacity applies to orwg only") {
			t.Errorf("Load with cache_capacity under %s: err = %v, want a refusal", d.Name, err)
		}
	}
	sc, err := Load(strings.NewReader(fmt.Sprintf(js, `"cache_capacity": 3`)))
	if err != nil {
		t.Fatal(err)
	}
	_, _, sys, reqs, err := sc.build()
	if err != nil {
		t.Fatal(err)
	}
	o := sys.(*orwg.System)
	o.Converge(600 * sim.Second)
	for _, req := range reqs {
		o.Establish(req)
	}
	if _, peak := o.StateMetrics(); peak != 3 || o.CacheStats().Evictions == 0 {
		t.Errorf("largest PG peak %d with %d evictions; want a table capped at 3 that evicted",
			peak, o.CacheStats().Evictions)
	}
}

package scenario

import (
	"io"
	"strings"
	"testing"
)

func TestMaterializeWorkload(t *testing.T) {
	sc, err := Load(strings.NewReader(`{
		"name": "wl",
		"topology": {"figure1": true},
		"policy": {"open": true},
		"protocol": {"name": "orwg"},
		"requests": {"workload": {"seed": 1, "requests": 37, "model": "zipf", "stubs_only": true}}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	g, db, reqs, err := sc.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if g == nil || db == nil {
		t.Fatal("nil graph or db")
	}
	if len(reqs) != 37 {
		t.Fatalf("len(reqs) = %d, want 37", len(reqs))
	}
	for _, r := range reqs {
		if _, ok := g.AD(r.Src); !ok {
			t.Fatalf("request source %v not in graph", r.Src)
		}
	}
}

func TestValidateRejectsBadScenarios(t *testing.T) {
	cases := map[string]string{
		"unknown protocol": `{
			"topology": {"figure1": true}, "policy": {"open": true},
			"protocol": {"name": "nope"}, "requests": {"all_pairs": true}}`,
		"no requests": `{
			"topology": {"figure1": true}, "policy": {"open": true},
			"protocol": {"name": "orwg"}, "requests": {}}`,
		"bad event action": `{
			"topology": {"figure1": true}, "policy": {"open": true},
			"protocol": {"name": "orwg"},
			"events": [{"action": "explode"}],
			"requests": {"all_pairs": true}}`,
		"fail on missing link": `{
			"topology": {"figure1": true}, "policy": {"open": true},
			"protocol": {"name": "orwg"},
			"events": [{"action": "fail", "a": 1, "b": 9999}],
			"requests": {"all_pairs": true}}`,
		// The link exists, so this used to load, and replay then re-added a
		// duplicate link (error swallowed) and charged the cache a LinkUp.
		"restore without fail": `{
			"topology": {"figure1": true}, "policy": {"open": true},
			"protocol": {"name": "orwg"},
			"events": [{"action": "restore", "a": 1, "b": 2}],
			"requests": {"all_pairs": true}}`,
		"restore of another link than the failed one": `{
			"topology": {"figure1": true}, "policy": {"open": true},
			"protocol": {"name": "orwg"},
			"events": [{"action": "fail", "a": 1, "b": 2}, {"action": "restore", "a": 1, "b": 3}],
			"requests": {"all_pairs": true}}`,
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			sc, err := Load(strings.NewReader(body))
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			// Run builds the world, the protocol and the ops before it
			// simulates anything, so a malformed scenario fails here at once.
			if err := sc.Run(io.Discard); err == nil {
				t.Fatal("Run accepted a malformed scenario")
			}
		})
	}
}

package main

import (
	"net"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/pgstate"
	"repro/internal/policy"
	"repro/internal/routeserver"
	"repro/internal/routeserver/daemon"
	"repro/internal/synthesis"
	"repro/internal/wire"
)

// scenarioStack builds what run() builds for -scenario path: the backend, the
// workload and the scenario's control ops.
func scenarioStack(t *testing.T, path string) (*daemon.Backend, []policy.Request, []wire.PlanStep) {
	t.Helper()
	g, db, workload, ops, err := materialize(path, 42, 0, "", 0, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := routeserver.NewDataPlane(pgstate.Config{Kind: pgstate.Hard})
	if err != nil {
		t.Fatal(err)
	}
	srv := routeserver.New(synthesis.NewOnDemand(g, db), routeserver.Config{})
	return daemon.NewBackend(srv, dp, g, db), workload, ops
}

// TestLoadDeliversScenarioOps: a load run fires a scenario's events at the
// server that answers the queries, in process and over -connect alike. The
// scenario's one event lets AD3 carry sources 6 and 7 only, and AD6's only
// link is to AD3, so afterwards 8 cannot reach 6. (Over the wire the events
// used to be dropped silently; in process they bypassed the backend.)
func TestLoadDeliversScenarioOps(t *testing.T) {
	const path = "../../scenarios/policy_change.json"
	for _, overWire := range []bool{false, true} {
		served, workload, ops := scenarioStack(t, path)
		if len(ops) != 1 || ops[0].Op != wire.CtlPolicy || len(ops[0].Terms) != 1 {
			t.Fatalf("scenario ops = %v, want one term-list policy step", ops)
		}
		ask := func() string {
			var out strings.Builder
			if err := serve(strings.NewReader("8 6\n"), &out, local(served)); err != nil {
				t.Fatal(err)
			}
			return strings.TrimSpace(out.String())
		}
		if got := ask(); got != "AD8>AD4>AD1>AD3>AD6" {
			t.Fatalf("before the run 8 6 = %q", got)
		}

		driver, connect := served, ""
		if overWire {
			// The load process has a stack of its own, as the binary does;
			// only the daemon's world may change.
			driver, _, _ = scenarioStack(t, path)
			connect = filepath.Join(t.TempDir(), "sock")
			ln, err := net.Listen("unix", connect)
			if err != nil {
				t.Fatal(err)
			}
			d := daemon.New(served, daemon.Config{})
			go d.Serve(ln)
			defer d.Kill()
		}
		if code := runLoad(driver, connect, workload, scenarioOps(ops), routeserver.LoadConfig{Clients: 2}, 42, ""); code != 0 {
			t.Fatalf("over the wire %v: load run exited %d", overWire, code)
		}
		if got := ask(); got != "no-route AD8->AD6 qos=0 uci=0 h=0" {
			t.Errorf("over the wire %v: after the run 8 6 = %q, want no-route", overWire, got)
		}
		if m := served.Server().Snapshot(); m.ScopedMutations != 1 {
			t.Errorf("over the wire %v: %d scoped mutations reached the serving backend, want 1", overWire, m.ScopedMutations)
		}
	}
}

// TestLoadReportsRefusedOp: an op the server refuses is an event error and
// exit 1, scenario ops like -churn ops.
func TestLoadReportsRefusedOp(t *testing.T) {
	be, workload, _ := scenarioStack(t, "../../scenarios/policy_change.json")
	refused := []timedOp{{After: 0.5, Op: wire.PlanStep{Op: wire.CtlRestore, A: 4, B: 5}}}
	if code := runLoad(be, "", workload, refused, routeserver.LoadConfig{Clients: 2}, 42, ""); code != 1 {
		t.Fatalf("load run with a refused op exited %d, want 1", code)
	}
}

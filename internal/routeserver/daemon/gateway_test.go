package daemon

import (
	"reflect"
	"testing"

	"repro/internal/ad"
	"repro/internal/policy"
	"repro/internal/wire"
)

// withdraw is the policy step that empties t1's term list: no route may
// transit the cheap side of testWorld's diamond any more.
var withdraw = wire.PlanStep{Op: wire.CtlPolicy, A: 2}

// TestPolicyOpTearsDownForbiddenFlows pins the gateway's policy rule on the
// serving stack: after a policy op withdraws a transit's terms, a flow
// through that transit no longer delivers. t1 drops its entry and NAKs
// upstream, so the flow fails at its source and is queued for repair, which
// reinstalls it over t2. The op's Flushed counts the two entries the NAK
// removed (t1's and the source's; the destination's is orphaned, as in the
// simulated gateways), and no live flow is left on a path the current
// policy refuses.
func TestPolicyOpTearsDownForbiddenFlows(t *testing.T) {
	be := testWorld(t, nil)
	cl := pipeSession(t, New(be, Config{}))
	through, path, ok := be.Install(policy.Request{Src: 1, Dst: 4})
	if !ok || !path.Equal(ad.Path{1, 2, 4}) {
		t.Fatalf("install 1-4 = %v %v, want AD1>AD2>AD4", path, ok)
	}
	beside, _, ok := be.Install(policy.Request{Src: 1, Dst: 3})
	if !ok {
		t.Fatal("install 1-3 failed")
	}

	cr, err := cl.Control(withdraw)
	if err != nil || !cr.OK() {
		t.Fatalf("policy op = %+v, %v", cr, err)
	}
	if cr.Flushed != 2 {
		t.Errorf("policy op flushed %d entries, want 2 (t1's and the source's)", cr.Flushed)
	}
	send := func(h uint64) *wire.DataOpReply {
		t.Helper()
		r, err := roundTrip[*wire.DataOpReply](cl, &wire.DataOp{Op: wire.OpSend, Handle: h})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if r := send(through); r.Code == wire.DataOK {
		t.Fatalf("flow through t1 still delivers after t1 withdrew its terms: %+v", r)
	}
	if r := send(beside); r.Code != wire.DataOK {
		t.Errorf("flow 1-3, which transits nothing, stopped delivering: %+v", r)
	}
	for _, h := range be.dp.Handles() {
		f, _ := be.dp.Flow(h)
		if !be.world.DB.PathLegal(f.Path, f.Req) {
			t.Errorf("live flow %d runs over %v, which the current policy refuses", h, f.Path)
		}
	}

	r, err := roundTrip[*wire.DataOpReply](cl, &wire.DataOp{Op: wire.OpRepair})
	if err != nil || r.N1 != 1 || r.N2 != 1 {
		t.Fatalf("repair = %+v, %v; want 1 attempted, 1 repaired", r, err)
	}
	hs := be.dp.Handles()
	f, _ := be.dp.Flow(hs[len(hs)-1])
	if !f.Path.Equal(ad.Path{1, 3, 4}) {
		t.Errorf("repaired flow runs over %v, want AD1>AD3>AD4", f.Path)
	}
	if r := send(hs[len(hs)-1]); r.Code != wire.DataOK {
		t.Errorf("repaired flow does not deliver: %+v", r)
	}
}

// TestPlanPredictsPolicyTeardowns pins that a plan of a policy step predicts
// the flows the gateway rule will fail, and that the commit fails exactly
// those.
func TestPlanPredictsPolicyTeardowns(t *testing.T) {
	be := testWorld(t, nil)
	through, _, ok := be.Install(policy.Request{Src: 1, Dst: 4})
	if !ok {
		t.Fatal("install 1-4 failed")
	}
	if _, _, ok := be.Install(policy.Request{Src: 1, Dst: 3}); !ok {
		t.Fatal("install 1-3 failed")
	}
	id, rep, err := be.Plan([]wire.PlanStep{withdraw})
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint64{through}; !reflect.DeepEqual(rep.Teardowns, want) {
		t.Fatalf("plan predicts teardowns %v, want %v", rep.Teardowns, want)
	}
	before := be.dp.Handles()
	res, err := be.Commit(id)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flushed != 2 {
		t.Errorf("commit flushed %d entries, want 2", res.Flushed)
	}
	live := make(map[uint64]bool)
	for _, h := range be.dp.Handles() {
		live[h] = true
	}
	var gone []uint64
	for _, h := range before {
		if !live[h] {
			gone = append(gone, h)
		}
	}
	if !reflect.DeepEqual(gone, rep.Teardowns) {
		t.Errorf("commit tore down %v, plan predicted %v", gone, rep.Teardowns)
	}
}

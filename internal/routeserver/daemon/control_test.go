package daemon

import (
	"flag"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/ad"
	"repro/internal/pgstate"
	"repro/internal/policy"
	"repro/internal/routeserver"
	"repro/internal/synthesis"
	"repro/internal/topology"
	"repro/internal/wire"
)

// TestControlRefusesUnknownAD pins the outside-input check: a policy op for
// an AD that does not exist is refused on the wire, installs nothing, and
// leaves the mutation epoch — and with it every pending plan — alone.
func TestControlRefusesUnknownAD(t *testing.T) {
	be := testWorld(t, nil)
	cl := pipeSession(t, New(be, Config{}))
	id, _, err := be.Plan([]wire.PlanStep{{Op: wire.CtlFail, A: 2, B: 4}})
	if err != nil {
		t.Fatal(err)
	}
	epoch := be.Server().Epoch()

	narrow := policy.OpenTerm(99999, 0)
	narrow.Sources = policy.SetOf(1, 2)
	for _, op := range []wire.PlanStep{
		wire.OpenPolicy(99999, 5),
		{Op: wire.CtlPolicy, A: 99999, Terms: []policy.Term{narrow, policy.OpenTerm(99999, 0)}},
		{Op: wire.CtlPolicy, A: 99999},
	} {
		cr, err := cl.Control(op)
		if err != nil || cr.Code != wire.CtlErr || cr.Err != "unknown AD AD99999" {
			t.Fatalf("%v for a nonexistent AD = %+v, %v; want CtlErr", op, cr, err)
		}
	}
	if got := be.Server().Epoch(); got != epoch {
		t.Errorf("refused op moved the mutation epoch %d -> %d", epoch, got)
	}
	if terms := be.world.DB.Terms(99999); len(terms) != 0 {
		t.Errorf("refused op installed terms %v", terms)
	}
	if pr, err := roundTrip[*wire.PlanReply](cl, &wire.Plan{Steps: []wire.PlanStep{wire.OpenPolicy(99999, 5)}}); err != nil || pr.OK() {
		t.Errorf("plan predicted a policy for a nonexistent AD: %+v, %v", pr, err)
	}
	if _, err := be.Commit(id); err != nil {
		t.Errorf("the refused op staled a pending plan: %v", err)
	}
}

// TestInvalidateReleasesEntries pins that a full invalidation empties the
// cache there and then, with no capacity pressure to push anything out:
// every count and the replication dump agree that nothing is held.
func TestInvalidateReleasesEntries(t *testing.T) {
	w := testWorld(t, nil).world
	srv := routeserver.New(synthesis.NewOnDemand(w.G, w.DB), routeserver.Config{Capacity: -1})
	dp, err := routeserver.NewDataPlane(pgstate.Config{})
	if err != nil {
		t.Fatal(err)
	}
	be := NewBackend(srv, dp, w.G, w.DB)
	for h := 0; h < 24; h++ {
		be.Query(policy.Request{Src: 1, Dst: 4, Hour: uint8(h)})
		be.Query(policy.Request{Src: 4, Dst: 1, Hour: uint8(h)})
	}
	if n := srv.CacheLen(); n != 48 {
		t.Fatalf("filled cache holds %d entries, want 48", n)
	}
	if _, err := be.Control(wire.PlanStep{Op: wire.CtlInvalidate}); err != nil {
		t.Fatal(err)
	}
	if n := srv.CacheLen(); n != 0 {
		t.Errorf("CacheLen = %d after invalidate, want 0", n)
	}
	if n := be.Server().CacheLen(); n != 0 {
		t.Errorf("Stats().Cached = %d after invalidate, want 0", n)
	}
	if ents := srv.DumpEntries(nil); len(ents) != 0 {
		t.Errorf("DumpEntries returned %d entries after invalidate, want none", len(ents))
	}
}

// scopeRecorder is a strategy that records the Change each server mutation
// handed it: what the live stack really scoped its invalidation to.
type scopeRecorder struct {
	synthesis.Strategy
	seen []synthesis.Change
}

func (r *scopeRecorder) Invalidate() {
	r.seen = append(r.seen, synthesis.FullChange())
	r.Strategy.Invalidate()
}

func (r *scopeRecorder) InvalidateScoped(ch synthesis.Change) {
	r.seen = append(r.seen, ch)
	r.Strategy.InvalidateScoped(ch)
}

// randomTerms draws a term list of 0 to 3 terms — the empty list included —
// with random explicit or universal source and destination sets, hour windows
// and costs: the policy changes an open term cannot spell.
func randomTerms(rng *rand.Rand, ids []ad.ID) []policy.Term {
	someSet := func() policy.ADSet {
		if rng.Intn(3) == 0 {
			return policy.Universal()
		}
		members := make([]ad.ID, rng.Intn(4))
		for i := range members {
			members[i] = ids[rng.Intn(len(ids))]
		}
		return policy.SetOf(members...)
	}
	var terms []policy.Term
	for n := rng.Intn(4); n > 0; n-- {
		t := policy.OpenTerm(0, 0) // SetTerms forces the advertiser
		t.Sources, t.Dests = someSet(), someSet()
		t.Hours = policy.HourWindow{Start: uint8(rng.Intn(24)), End: uint8(1 + rng.Intn(24))}
		t.Cost = uint32(1 + rng.Intn(4))
		terms = append(terms, t)
	}
	return terms
}

// TestLargestControlReplicates pins that any step a Control frame can carry,
// the HA stream can carry: a SyncEntry has more fixed overhead than a
// Control, so as a term list grows four bytes at a time across the frame
// limit, each step the backend accepts must fit the replication record, and
// the ones that fit a Control but not that record must be refused with
// nothing changed.
func TestLargestControlReplicates(t *testing.T) {
	be := testWorld(t, nil)
	// An open term's encoded size is what it adds to a Control frame.
	empty := wire.PlanStep{Op: wire.CtlPolicy, A: 2}
	one := wire.PlanStep{Op: wire.CtlPolicy, A: 2, Terms: []policy.Term{policy.OpenTerm(2, 0)}}
	termLen := len(wire.Marshal(wire.NewControl(1, one))) - len(wire.Marshal(wire.NewControl(1, empty)))
	// Explicit serials: pairing serial-less terms with their predecessors is
	// quadratic in the list length.
	bulk := make([]policy.Term, (1<<16)/termLen-8)
	for i := range bulk {
		bulk[i] = policy.OpenTerm(2, uint32(i+1))
	}
	accepted, refused := 0, 0
	for members := 0; ; members++ {
		filler := policy.OpenTerm(2, uint32(len(bulk)+1))
		ids := make([]ad.ID, members)
		for i := range ids {
			ids[i] = ad.ID(i + 1)
		}
		filler.Sources = policy.SetOf(ids...)
		op := wire.PlanStep{Op: wire.CtlPolicy, A: 2, Terms: append(bulk[:len(bulk):len(bulk)], filler)}
		if _, err := wire.AppendMessage(nil, wire.NewControl(1, op)); err != nil {
			break // beyond what any client can send
		}
		before := be.world.DB.Terms(2)
		if _, err := be.Control(op); err != nil {
			refused++
			if after := be.world.DB.Terms(2); !reflect.DeepEqual(before, after) {
				t.Fatalf("refused step (%d filler members) changed AD2's terms", members)
			}
			continue
		}
		accepted++
		if _, err := wire.AppendMessage(nil, &wire.SyncEntry{Op: wire.SyncCtl, Ctl: op}); err != nil {
			t.Fatalf("backend accepted a step (%d filler members) its followers cannot be sent: %v", members, err)
		}
	}
	if accepted == 0 || refused == 0 {
		t.Fatalf("accepted %d, refused %d: the sweep did not straddle the replication limit", accepted, refused)
	}
}

var controlSeed = flag.Int64("controlseed", 0, "seed for TestControlLiveMatchesClone (0 = from the clock)")

// TestControlLiveMatchesClone is the reason prediction and commit cannot
// drift: random op sequences — refused ones included: absent link, restore
// without fail, unknown AD, unknown op — driven through Backend.Control on
// a live stack and through World.Apply on a clone of its starting world
// yield the same Change and the same error at every step, and end in the
// same world.
func TestControlLiveMatchesClone(t *testing.T) {
	seed := *controlSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	rng := rand.New(rand.NewSource(seed))
	for round := 0; round < 20; round++ {
		g := topology.Generate(topology.Config{
			Seed: rng.Int63(), Backbones: 2, RegionalsPerBackbone: 2, CampusesPerParent: 2,
			LateralProb: 0.3, BypassProb: 0.1, MultihomedProb: 0.2, HybridProb: 0.1,
		}).Graph
		db := policy.OpenDB(g)
		scoped := &scopeRecorder{Strategy: synthesis.NewOnDemand(g, db)}
		dp, err := routeserver.NewDataPlane(pgstate.Config{Kind: pgstate.Hard})
		if err != nil {
			t.Fatal(err)
		}
		be := NewBackend(routeserver.New(scoped, routeserver.Config{}), dp, g, db)
		clone := be.world.Clone()
		var replicated []wire.PlanStep
		be.SetReplicator(func(op wire.PlanStep) { replicated = append(replicated, op) })

		ids, links := g.IDs(), g.Links()
		someAD := func() ad.ID {
			if rng.Intn(8) == 0 {
				return ad.ID(1000 + rng.Intn(3)) // unknown
			}
			return ids[rng.Intn(len(ids))]
		}
		var applied []wire.PlanStep
		var want []synthesis.Change
		for step := 0; step < 60; step++ {
			var op wire.PlanStep
			switch l := links[rng.Intn(len(links))]; rng.Intn(10) {
			case 0, 1, 2:
				op = wire.PlanStep{Op: wire.CtlFail, A: l.A, B: l.B}
			case 3, 4, 5:
				op = wire.PlanStep{Op: wire.CtlRestore, A: l.B, B: l.A}
			case 6:
				op = wire.PlanStep{Op: wire.CtlFail, A: someAD(), B: someAD()}
			case 7:
				op = wire.OpenPolicy(someAD(), uint32(1+rng.Intn(4)))
			case 8:
				op = wire.PlanStep{Op: wire.CtlPolicy, A: someAD(), Terms: randomTerms(rng, ids)}
			default:
				op = wire.PlanStep{Op: wire.CtlInvalidate + uint8(rng.Intn(3)), A: someAD()}
			}
			_, err := be.Control(op)
			ch, cloneErr := clone.Apply(op)
			if (err == nil) != (cloneErr == nil) || (err != nil && err.Error() != cloneErr.Error()) {
				t.Fatalf("seed %d round %d step %d %v: live error %v, clone error %v",
					seed, round, step, op, err, cloneErr)
			}
			if err == nil {
				applied, want = append(applied, op), append(want, ch)
			}
		}
		if !reflect.DeepEqual(scoped.seen, want) {
			t.Fatalf("seed %d round %d: live changes %+v, clone changes %+v", seed, round, scoped.seen, want)
		}
		if !reflect.DeepEqual(replicated, applied) {
			t.Fatalf("seed %d round %d: replicated %v, applied %v", seed, round, replicated, applied)
		}
		if live, want := be.world.G.Links(), clone.G.Links(); !reflect.DeepEqual(live, want) {
			t.Fatalf("seed %d round %d: live links %v, clone links %v", seed, round, live, want)
		}
		if !reflect.DeepEqual(be.world.Failed, clone.Failed) {
			t.Fatalf("seed %d round %d: live failed-link memory %v, clone %v", seed, round, be.world.Failed, clone.Failed)
		}
		for _, id := range append(ids, 1000, 1001, 1002) {
			if live, want := be.world.DB.Terms(id), clone.DB.Terms(id); !reflect.DeepEqual(live, want) {
				t.Fatalf("seed %d round %d: %v live terms %v, clone terms %v", seed, round, id, live, want)
			}
		}
	}
}

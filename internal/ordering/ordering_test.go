package ordering

import (
	"flag"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/ad"
	"repro/internal/topology"
)

func TestFromLevels(t *testing.T) {
	topo := topology.Figure1()
	o := FromLevels(topo.Graph)
	if len(o.rank) != topo.Graph.NumADs() {
		t.Fatalf("%d ranks, want %d", len(o.rank), topo.Graph.NumADs())
	}
	seen := map[int64]bool{}
	for _, id := range topo.Graph.IDs() {
		if seen[o.rankOf(id)] {
			t.Errorf("AD %v shares rank %d: ordering not strict", id, o.rankOf(id))
		}
		seen[o.rankOf(id)] = true
	}
	// Backbones rank above regionals, which rank above campuses.
	bb := topo.ByLevel[ad.Backbone][0]
	reg := topo.ByLevel[ad.Regional][0]
	cam := topo.ByLevel[ad.Campus][0]
	if o.rankOf(bb) <= o.rankOf(reg) || o.rankOf(reg) <= o.rankOf(cam) {
		t.Errorf("ranks: bb=%d reg=%d cam=%d", o.rankOf(bb), o.rankOf(reg), o.rankOf(cam))
	}
	if o.Direction(cam, reg) != Up || o.Direction(reg, cam) != Down {
		t.Error("Direction wrong for hierarchical link")
	}
}

func TestUpDownValid(t *testing.T) {
	topo := topology.Figure1()
	o := FromLevels(topo.Graph)
	bb := topo.ByLevel[ad.Backbone]
	reg := topo.ByLevel[ad.Regional]
	cam := topo.ByLevel[ad.Campus]
	// campus -> regional -> backbone -> regional -> campus: up,up,down,down = valid.
	valley := ad.Path{cam[0], reg[0], bb[0], reg[1], cam[2]}
	if !o.UpDownValid(valley) {
		t.Error("valley-free path rejected")
	}
	// campus -> regional -> campus -> regional: down then up = invalid.
	bad := ad.Path{reg[0], cam[0], reg[0]} // down then up (also a loop)
	if o.UpDownValid(bad) {
		t.Error("up-after-down path accepted")
	}
	// Pure up and pure down paths are valid.
	if !o.UpDownValid(ad.Path{cam[0], reg[0], bb[0]}) {
		t.Error("pure up path rejected")
	}
	if !o.UpDownValid(ad.Path{bb[0], reg[0], cam[0]}) {
		t.Error("pure down path rejected")
	}
	// Single node and empty paths are trivially valid.
	if !o.UpDownValid(ad.Path{cam[0]}) || !o.UpDownValid(nil) {
		t.Error("trivial paths rejected")
	}
}

func TestDirectionString(t *testing.T) {
	if Up.String() != "up" || Down.String() != "down" {
		t.Error("Direction.String wrong")
	}
}

func TestFromConstraintsSimple(t *testing.T) {
	cons := []Constraint{{Above: 1, Below: 2}, {Above: 2, Below: 3}}
	o, ok := FromConstraints([]ad.ID{1, 2, 3, 4}, cons)
	if !ok {
		t.Fatal("satisfiable set reported unsatisfiable")
	}
	if o.rankOf(1) <= o.rankOf(2) || o.rankOf(2) <= o.rankOf(3) {
		t.Errorf("ranks violate constraints: 1=%d 2=%d 3=%d", o.rankOf(1), o.rankOf(2), o.rankOf(3))
	}
	// Unconstrained AD 4 ranks below constrained ones.
	if o.rankOf(4) >= o.rankOf(3) {
		t.Errorf("unconstrained AD 4 rank %d >= AD3 rank %d", o.rankOf(4), o.rankOf(3))
	}
}

// satisfiable reports whether cons admits a single partial ordering, by the
// reference: FromConstraints' layering, which shares no code with
// Negotiate's cycle finder.
func satisfiable(cons []Constraint) bool {
	_, ok := FromConstraints(nil, cons)
	return ok
}

func TestFromConstraintsCycle(t *testing.T) {
	cons := []Constraint{{Above: 1, Below: 2}, {Above: 2, Below: 3}, {Above: 3, Below: 1}}
	if _, ok := FromConstraints(nil, cons); ok {
		t.Error("cyclic constraints reported satisfiable")
	}
	if _, rounds := Negotiate(cons); rounds == 0 {
		t.Error("negotiating a cycle took 0 rounds")
	}
	if _, rounds := Negotiate(cons[:2]); rounds != 0 {
		t.Error("negotiating a chain took rounds")
	}
	// Self-constraint is trivially unsatisfiable.
	if _, rounds := Negotiate([]Constraint{{Above: 7, Below: 7}}); rounds == 0 {
		t.Error("self-constraint satisfiable")
	}
}

func TestFromConstraintsDiamond(t *testing.T) {
	// 1 above 2 and 3; both above 4. Must be satisfiable with 1 on top.
	cons := []Constraint{
		{Above: 1, Below: 2}, {Above: 1, Below: 3},
		{Above: 2, Below: 4}, {Above: 3, Below: 4},
	}
	o, ok := FromConstraints(nil, cons)
	if !ok {
		t.Fatal("diamond unsatisfiable")
	}
	for _, c := range cons {
		if o.rankOf(c.Above) <= o.rankOf(c.Below) {
			t.Errorf("constraint %v violated: %d <= %d", c, o.rankOf(c.Above), o.rankOf(c.Below))
		}
	}
}

func TestNegotiate(t *testing.T) {
	cons := []Constraint{
		{Above: 1, Below: 2}, {Above: 2, Below: 3}, {Above: 3, Below: 1}, // cycle
		{Above: 4, Below: 5}, // independent
	}
	kept, rounds := Negotiate(cons)
	if rounds != 1 {
		t.Errorf("rounds = %d, want 1", rounds)
	}
	if len(kept) != 3 {
		t.Errorf("kept %d constraints, want 3", len(kept))
	}
	if !satisfiable(kept) {
		t.Error("negotiated set unsatisfiable")
	}
	// Acyclic input: nothing dropped.
	kept, rounds = Negotiate(cons[:2])
	if rounds != 0 || len(kept) != 2 {
		t.Errorf("acyclic negotiation: rounds=%d kept=%d", rounds, len(kept))
	}
	// Empty input.
	kept, rounds = Negotiate(nil)
	if rounds != 0 || len(kept) != 0 {
		t.Errorf("empty negotiation: rounds=%d kept=%d", rounds, len(kept))
	}
}

func TestNegotiateManyCycles(t *testing.T) {
	// Two disjoint 2-cycles: exactly two rounds.
	cons := []Constraint{
		{Above: 1, Below: 2}, {Above: 2, Below: 1},
		{Above: 3, Below: 4}, {Above: 4, Below: 3},
	}
	kept, rounds := Negotiate(cons)
	if rounds != 2 {
		t.Errorf("rounds = %d, want 2", rounds)
	}
	if !satisfiable(kept) {
		t.Error("result unsatisfiable")
	}
}

func TestNegotiateAlwaysTerminatesAndSatisfies(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(20)
		var cons []Constraint
		for i := 0; i < rng.Intn(60); i++ {
			a := ad.ID(1 + rng.Intn(n))
			b := ad.ID(1 + rng.Intn(n))
			if a != b {
				cons = append(cons, Constraint{Above: a, Below: b})
			}
		}
		kept, rounds := Negotiate(cons)
		if !satisfiable(kept) {
			t.Fatalf("trial %d: negotiated set still unsatisfiable", trial)
		}
		if rounds != len(cons)-len(kept) {
			t.Fatalf("trial %d: rounds %d != dropped %d", trial, rounds, len(cons)-len(kept))
		}
	}
}

func TestUpDownLoopsAreMountains(t *testing.T) {
	// The up/down rule does not forbid every closed walk by itself: a
	// walk may climb and descend back ("mountain"). What it guarantees —
	// and what gives ECMA its convergence behaviour — is that any closed
	// walk passing the rule consists of a strictly ascending phase
	// followed by a strictly descending phase. Such walks cannot sustain
	// count-to-infinity because routing updates never cycle among peers:
	// the distance metric strictly increases along each phase.
	topo := topology.Generate(topology.Config{Seed: 4, LateralProb: 0.3, BypassProb: 0.2})
	g := topo.Graph
	o := FromLevels(g)
	rng := rand.New(rand.NewSource(5))
	ids := g.IDs()
	loops, mountains := 0, 0
	for trial := 0; trial < 2000; trial++ {
		start := ids[rng.Intn(len(ids))]
		path := ad.Path{start}
		cur := start
		for step := 0; step < 6; step++ {
			nbrs := g.Neighbors(cur)
			if len(nbrs) == 0 {
				break
			}
			cur = nbrs[rng.Intn(len(nbrs))]
			path = append(path, cur)
			if cur == start && len(path) > 2 {
				loops++
				if o.UpDownValid(path) {
					mountains++
					// Verify the mountain shape: ranks strictly
					// rise to a single peak then strictly fall.
					peak := 0
					for i := 1; i < len(path); i++ {
						if o.rankOf(path[i]) > o.rankOf(path[peak]) {
							peak = i
						}
					}
					for i := 1; i <= peak; i++ {
						if o.rankOf(path[i]) <= o.rankOf(path[i-1]) {
							t.Errorf("valid loop %v not ascending before peak", path)
						}
					}
					for i := peak + 1; i < len(path); i++ {
						if o.rankOf(path[i]) >= o.rankOf(path[i-1]) {
							t.Errorf("valid loop %v not descending after peak", path)
						}
					}
				}
				break
			}
		}
	}
	if loops == 0 {
		t.Skip("random walks found no loops; topology too sparse for this seed")
	}
}

var negSeed = flag.Int64("negseed", -1, "replay one TestNegotiateDifferential seed (-1 = all)")

// refFindCycle is the map-based cycle search Negotiate ran before it kept one
// dense cycle finder per call, retained as the reference: adjacency, colour
// and parent maps rebuilt from the constraint list on every call, roots in
// ascending AD ID among the ADs that head a constraint.
func refFindCycle(cons []Constraint) []int {
	adj := make(map[ad.ID][]int)
	for i, c := range cons {
		adj[c.Above] = append(adj[c.Above], i)
	}
	color := make(map[ad.ID]int)
	parentEdge := make(map[ad.ID]int)
	var cycle []int
	var dfs func(u ad.ID) bool
	dfs = func(u ad.ID) bool {
		color[u] = 1
		for _, ei := range adj[u] {
			v := cons[ei].Below
			switch color[v] {
			case 0:
				parentEdge[v] = ei
				if dfs(v) {
					return true
				}
			case 1:
				cycle = append(cycle, ei)
				for x := u; x != v; {
					pe := parentEdge[x]
					cycle = append(cycle, pe)
					x = cons[pe].Above
				}
				return true
			}
		}
		color[u] = 2
		return false
	}
	var nodes []ad.ID
	for id := range adj {
		nodes = append(nodes, id)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for _, u := range nodes {
		if color[u] == 0 && dfs(u) {
			return cycle
		}
	}
	return nil
}

// refNegotiate drops the highest-index constraint of refFindCycle's cycle
// from a re-sliced copy of the list until none is left.
func refNegotiate(cons []Constraint) (kept []Constraint, rounds int) {
	kept = append([]Constraint(nil), cons...)
	for {
		cycle := refFindCycle(kept)
		if cycle == nil {
			return kept, rounds
		}
		drop := slices.Max(cycle)
		kept = append(kept[:drop], kept[drop+1:]...)
		rounds++
	}
}

// e10Constraints draws k constraints uniformly over ordered pairs of
// distinct ADs 1..numADs, as E10 does.
func e10Constraints(rng *rand.Rand, numADs, k int) []Constraint {
	cons := make([]Constraint, 0, k)
	for len(cons) < k {
		a, b := ad.ID(1+rng.Intn(numADs)), ad.ID(1+rng.Intn(numADs))
		if a != b {
			cons = append(cons, Constraint{Above: a, Below: b})
		}
	}
	return cons
}

// negInput is one seeded input of the differential test: an E10 row's shape
// (10 to 320 constraints over 60 ADs), then, by seed, repeated constraints,
// self-constraints, IDs far apart, or the empty list.
func negInput(seed int64) []Constraint {
	rng := rand.New(rand.NewSource(seed))
	cons := e10Constraints(rng, 60, 10<<rng.Intn(6))
	switch seed % 5 {
	case 1: // repeats
		for i := rng.Intn(len(cons)); i > 0; i-- {
			at := rng.Intn(len(cons) + 1)
			cons = slices.Insert(cons, at, cons[rng.Intn(len(cons))])
		}
	case 2: // self-constraints
		for i := 1 + rng.Intn(4); i > 0; i-- {
			id := ad.ID(1 + rng.Intn(60))
			cons = slices.Insert(cons, rng.Intn(len(cons)+1), Constraint{Above: id, Below: id})
		}
	case 3: // far-apart IDs
		far := []ad.ID{7, 1_000_000, 1 << 31}
		for i := range cons {
			if rng.Intn(2) == 0 {
				cons[i].Above = far[rng.Intn(len(far))]
			}
			if rng.Intn(2) == 0 {
				cons[i].Below = far[rng.Intn(len(far))]
			}
		}
	case 4:
		if rng.Intn(4) == 0 {
			cons = nil
		}
	}
	return cons
}

// TestNegotiateDifferential runs Negotiate and the map-based reference on
// the same seeded inputs: the kept constraints (content and order) and the
// round count must agree, and the input is satisfiable — by FromConstraints
// — exactly when no round was needed. Replay one input with -run TestNegotiateDifferential -negseed N.
func TestNegotiateDifferential(t *testing.T) {
	seeds := make([]int64, 400)
	for i := range seeds {
		seeds[i] = int64(i)*37 + 3
	}
	if *negSeed >= 0 {
		seeds = []int64{*negSeed}
	}
	dropped := 0
	for _, seed := range seeds {
		cons := negInput(seed)
		in := slices.Clone(cons)
		kept, rounds := Negotiate(cons)
		wantKept, wantRounds := refNegotiate(cons)
		if !slices.Equal(cons, in) {
			t.Fatalf("seed %d: Negotiate modified its input", seed)
		}
		if rounds != wantRounds || !slices.Equal(kept, wantKept) {
			t.Fatalf("seed %d (%d constraints): Negotiate kept %d in %d rounds, reference kept %d in %d rounds\n got  %v\n want %v",
				seed, len(cons), len(kept), rounds, len(wantKept), wantRounds, kept, wantKept)
		}
		if ordered := satisfiable(cons); ordered != (rounds == 0) {
			t.Fatalf("seed %d: FromConstraints ok = %v after %d rounds", seed, ordered, rounds)
		}
		dropped += rounds
	}
	if *negSeed < 0 && dropped == 0 {
		t.Fatal("no input needed negotiation: the generator lost its cycles")
	}
}

func TestNegotiateEdgeCases(t *testing.T) {
	for _, cons := range [][]Constraint{
		nil,
		{{Above: 7, Below: 7}},
		{{Above: 7, Below: 7}, {Above: 7, Below: 7}},
		{{Above: 1, Below: 2}, {Above: 1, Below: 2}, {Above: 2, Below: 1}},
		{{Above: 7, Below: 1_000_000}, {Above: 1_000_000, Below: 1 << 31}, {Above: 1 << 31, Below: 7}},
	} {
		kept, rounds := Negotiate(cons)
		wantKept, wantRounds := refNegotiate(cons)
		if rounds != wantRounds || !slices.Equal(kept, wantKept) {
			t.Errorf("%v: kept %v in %d rounds, reference %v in %d", cons, kept, rounds, wantKept, wantRounds)
		}
	}
}

// BenchmarkNegotiate is E10's largest row: one op negotiates its 200
// trials of 320 random constraints over 60 ADs. rounds/op is the row's
// total of dropped constraints, fixed by the inputs.
func BenchmarkNegotiate(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	trials := make([][]Constraint, 200)
	for i := range trials {
		trials[i] = e10Constraints(rng, 60, 320)
	}
	b.ReportAllocs()
	b.ResetTimer()
	rounds := 0
	for i := 0; i < b.N; i++ {
		for _, cons := range trials {
			_, r := Negotiate(cons)
			rounds += r
		}
	}
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
}

package ad

import (
	"testing"
	"testing/quick"
)

func buildTriangle(t *testing.T) (*Graph, ID, ID, ID) {
	t.Helper()
	g := NewGraph()
	a := g.AddAD("a", Transit, Backbone)
	b := g.AddAD("b", Transit, Regional)
	c := g.AddAD("c", Stub, Campus)
	for _, l := range []Link{
		{A: a, B: b, Class: Hierarchical, Cost: 1},
		{A: b, B: c, Class: Hierarchical, Cost: 2},
		{A: a, B: c, Class: Bypass, Cost: 5},
	} {
		if err := g.AddLink(l); err != nil {
			t.Fatalf("AddLink(%v): %v", l, err)
		}
	}
	return g, a, b, c
}

func TestAddAD(t *testing.T) {
	g := NewGraph()
	a := g.AddAD("first", Stub, Campus)
	b := g.AddAD("second", Transit, Backbone)
	if a == b {
		t.Fatalf("AddAD returned duplicate IDs: %v", a)
	}
	if a == Invalid || b == Invalid {
		t.Fatalf("AddAD returned Invalid ID")
	}
	info, ok := g.AD(a)
	if !ok {
		t.Fatalf("AD(%v) not found", a)
	}
	if info.Name != "first" || info.Class != Stub || info.Level != Campus {
		t.Errorf("AD(%v) = %+v, want first/stub/campus", a, info)
	}
}

func TestAddADWithID(t *testing.T) {
	g := NewGraph()
	if err := g.AddADWithID(10, "ten", Transit, Backbone); err != nil {
		t.Fatalf("AddADWithID(10): %v", err)
	}
	if err := g.AddADWithID(10, "dup", Stub, Campus); err == nil {
		t.Error("AddADWithID duplicate: want error, got nil")
	}
	if err := g.AddADWithID(Invalid, "zero", Stub, Campus); err == nil {
		t.Error("AddADWithID(Invalid): want error, got nil")
	}
	// nextID must advance past explicit IDs.
	next := g.AddAD("next", Stub, Campus)
	if next <= 10 {
		t.Errorf("AddAD after explicit ID 10 returned %v, want > 10", next)
	}
}

func TestAddLinkErrors(t *testing.T) {
	g := NewGraph()
	a := g.AddAD("a", Stub, Campus)
	b := g.AddAD("b", Stub, Campus)
	if err := g.AddLink(Link{A: a, B: a}); err == nil {
		t.Error("self-link: want error")
	}
	if err := g.AddLink(Link{A: a, B: 999}); err == nil {
		t.Error("unknown endpoint: want error")
	}
	if err := g.AddLink(Link{A: a, B: b}); err != nil {
		t.Fatalf("AddLink: %v", err)
	}
	// Duplicate in either orientation must fail.
	if err := g.AddLink(Link{A: b, B: a}); err == nil {
		t.Error("duplicate reversed link: want error")
	}
}

func TestLinkCostDefaults(t *testing.T) {
	g := NewGraph()
	a := g.AddAD("a", Stub, Campus)
	b := g.AddAD("b", Stub, Campus)
	if err := g.AddLink(Link{A: a, B: b}); err != nil {
		t.Fatal(err)
	}
	l, ok := g.LinkBetween(a, b)
	if !ok {
		t.Fatal("LinkBetween: missing")
	}
	if l.Cost != 1 {
		t.Errorf("default link cost = %d, want 1", l.Cost)
	}
}

func TestNeighborsSorted(t *testing.T) {
	g, a, b, c := buildTriangle(t)
	n := g.Neighbors(a)
	if len(n) != 2 || n[0] != b || n[1] != c {
		t.Errorf("Neighbors(%v) = %v, want [%v %v]", a, n, b, c)
	}
}

func TestNeighborsCacheTracksMutations(t *testing.T) {
	// The sorted-adjacency cache must stay correct across AddLink and
	// RemoveLink, including out-of-order insertions.
	g := NewGraph()
	a := g.AddAD("a", Transit, Backbone)
	var others []ID
	for i := 0; i < 5; i++ {
		others = append(others, g.AddAD("x", Stub, Campus))
	}
	// Link in a scrambled order; Neighbors must still come out ascending.
	for _, i := range []int{3, 0, 4, 2, 1} {
		if err := g.AddLink(Link{A: a, B: others[i]}); err != nil {
			t.Fatal(err)
		}
	}
	n := g.Neighbors(a)
	if len(n) != 5 {
		t.Fatalf("Neighbors = %v", n)
	}
	for i := 1; i < len(n); i++ {
		if n[i-1] >= n[i] {
			t.Fatalf("Neighbors not ascending: %v", n)
		}
	}
	if !g.RemoveLink(a, others[2]) {
		t.Fatal("RemoveLink failed")
	}
	n = g.Neighbors(a)
	if len(n) != 4 {
		t.Fatalf("Neighbors after removal = %v", n)
	}
	for _, id := range n {
		if id == others[2] {
			t.Errorf("removed neighbor still cached: %v", n)
		}
	}
	if got := g.Neighbors(others[2]); len(got) != 0 {
		t.Errorf("far endpoint still caches removed link: %v", got)
	}
}

func TestCloneCopiesNeighborCache(t *testing.T) {
	g, a, b, _ := buildTriangle(t)
	clone := g.Clone()
	if !clone.RemoveLink(a, b) {
		t.Fatal("RemoveLink on clone failed")
	}
	if n := g.Neighbors(a); len(n) != 2 {
		t.Errorf("clone mutation leaked into original: %v", n)
	}
	if n := clone.Neighbors(a); len(n) != 1 {
		t.Errorf("clone Neighbors = %v, want 1 entry", n)
	}
}

func TestRemoveLink(t *testing.T) {
	g, a, b, _ := buildTriangle(t)
	if !g.RemoveLink(b, a) { // reversed order must still match
		t.Fatal("RemoveLink(b,a) = false, want true")
	}
	if g.HasLink(a, b) {
		t.Error("HasLink after removal = true")
	}
	if g.RemoveLink(a, b) {
		t.Error("second RemoveLink = true, want false")
	}
	if got := g.Degree(a); got != 1 {
		t.Errorf("Degree(a) after removal = %d, want 1", got)
	}
	if got := g.NumLinks(); got != 2 {
		t.Errorf("NumLinks after removal = %d, want 2", got)
	}
}

func TestConnectedAndTree(t *testing.T) {
	g, a, b, c := buildTriangle(t)
	if !g.Connected() {
		t.Error("triangle not connected")
	}
	if g.IsTree() {
		t.Error("triangle reported as tree")
	}
	g.RemoveLink(a, c)
	if !g.IsTree() {
		t.Error("path graph not reported as tree")
	}
	g.RemoveLink(a, b)
	if g.Connected() {
		t.Error("disconnected graph reported connected")
	}
	_ = c
}

func TestCloneIsolation(t *testing.T) {
	g, a, b, _ := buildTriangle(t)
	c := g.Clone()
	c.RemoveLink(a, b)
	if !g.HasLink(a, b) {
		t.Error("RemoveLink on clone affected original")
	}
	if c.NumADs() != g.NumADs() {
		t.Errorf("clone NumADs = %d, want %d", c.NumADs(), g.NumADs())
	}
	// Adding to the clone must not collide with original IDs.
	n := c.AddAD("new", Stub, Campus)
	if _, ok := g.AD(n); ok {
		t.Error("AddAD on clone leaked into original")
	}
}

func TestPathValid(t *testing.T) {
	g, a, b, c := buildTriangle(t)
	cases := []struct {
		name string
		p    Path
		want bool
	}{
		{"direct", Path{a, b}, true},
		{"two-hop", Path{a, b, c}, true},
		{"bypass", Path{a, c}, true},
		{"empty", Path{}, false},
		{"loop", Path{a, b, a}, false},
		{"nonadjacent", Path{a, 99}, false},
		{"single", Path{a}, true},
	}
	for _, tc := range cases {
		if got := tc.p.Valid(g); got != tc.want {
			t.Errorf("%s: Valid(%v) = %v, want %v", tc.name, tc.p, got, tc.want)
		}
	}
}

func TestPathCost(t *testing.T) {
	g, a, b, c := buildTriangle(t)
	cost, ok := Path{a, b, c}.Cost(g)
	if !ok || cost != 3 {
		t.Errorf("Cost(a,b,c) = %d,%v want 3,true", cost, ok)
	}
	cost, ok = Path{a, c}.Cost(g)
	if !ok || cost != 5 {
		t.Errorf("Cost(a,c) = %d,%v want 5,true", cost, ok)
	}
	if _, ok := (Path{a, 77}).Cost(g); ok {
		t.Error("Cost of invalid path reported ok")
	}
}

func TestPathHelpers(t *testing.T) {
	p := Path{3, 1, 2}
	if p.Source() != 3 || p.Dest() != 2 || p.Hops() != 2 {
		t.Errorf("Source/Dest/Hops = %v/%v/%d", p.Source(), p.Dest(), p.Hops())
	}
	if !p.Contains(1) || p.Contains(9) {
		t.Error("Contains wrong")
	}
	r := p.Reverse()
	if !r.Equal(Path{2, 1, 3}) {
		t.Errorf("Reverse = %v", r)
	}
	if !p.Equal(p.Clone()) {
		t.Error("Clone not equal")
	}
	var empty Path
	if empty.Source() != Invalid || empty.Dest() != Invalid || empty.Hops() != 0 {
		t.Error("empty path helpers wrong")
	}
	if empty.String() != "<empty>" {
		t.Errorf("empty String = %q", empty.String())
	}
	if got := (Path{1, 2}).String(); got != "AD1>AD2" {
		t.Errorf("String = %q, want AD1>AD2", got)
	}
}

func TestPropertyReverseTwiceIsIdentity(t *testing.T) {
	f := func(ids []uint32) bool {
		p := make(Path, len(ids))
		for i, x := range ids {
			p[i] = ID(x)
		}
		return p.Reverse().Reverse().Equal(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyCanonicalLink(t *testing.T) {
	f := func(a, b uint32) bool {
		l := Link{A: ID(a), B: ID(b)}.Canonical()
		return l.A <= l.B
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyLoopFreeMatchesValidOnCompleteGraph(t *testing.T) {
	// On a complete graph, Valid reduces to LoopFree for non-empty paths.
	g := NewGraph()
	var ids []ID
	for i := 0; i < 6; i++ {
		ids = append(ids, g.AddAD("n", Stub, Campus))
	}
	for i := range ids {
		for j := i + 1; j < len(ids); j++ {
			if err := g.AddLink(Link{A: ids[i], B: ids[j]}); err != nil {
				t.Fatal(err)
			}
		}
	}
	f := func(idx []uint8) bool {
		if len(idx) == 0 {
			return true
		}
		p := make(Path, 0, len(idx))
		for _, x := range idx {
			p = append(p, ids[int(x)%len(ids)])
		}
		return p.Valid(g) == p.LoopFree()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringers(t *testing.T) {
	if Invalid.String() != "AD?" {
		t.Errorf("Invalid.String() = %q", Invalid.String())
	}
	if ID(7).String() != "AD7" {
		t.Errorf("ID(7).String() = %q", ID(7).String())
	}
	for _, c := range []Class{Stub, MultihomedStub, Transit, Hybrid, Class(200)} {
		if c.String() == "" {
			t.Errorf("Class(%d).String() empty", c)
		}
	}
	for _, l := range []Level{Backbone, Regional, Metro, Campus, Level(200)} {
		if l.String() == "" {
			t.Errorf("Level(%d).String() empty", l)
		}
	}
	for _, lc := range []LinkClass{Hierarchical, Lateral, Bypass, LinkClass(200)} {
		if lc.String() == "" {
			t.Errorf("LinkClass(%d).String() empty", lc)
		}
	}
}

func TestLinkOther(t *testing.T) {
	l := Link{A: 1, B: 2}
	if o, ok := l.Other(1); !ok || o != 2 {
		t.Errorf("Other(1) = %v,%v", o, ok)
	}
	if o, ok := l.Other(2); !ok || o != 1 {
		t.Errorf("Other(2) = %v,%v", o, ok)
	}
	if _, ok := l.Other(3); ok {
		t.Error("Other(3) should be false")
	}
}

func TestGraphAccessors(t *testing.T) {
	g, a, b, c := buildTriangle(t)
	links := g.Links()
	if len(links) != 3 {
		t.Fatalf("Links = %d", len(links))
	}
	for i := 1; i < len(links); i++ {
		if links[i-1].A > links[i].A || (links[i-1].A == links[i].A && links[i-1].B > links[i].B) {
			t.Error("Links not sorted")
		}
	}
	infos := g.ADs()
	if len(infos) != 3 || infos[0].ID != a || infos[2].ID != c {
		t.Errorf("ADs = %v", infos)
	}
	ids := g.IDs()
	if len(ids) != 3 || ids[0] != a || ids[1] != b {
		t.Errorf("IDs = %v", ids)
	}
	inc := g.IncidentLinks(a)
	if len(inc) != 2 {
		t.Fatalf("IncidentLinks = %d", len(inc))
	}
	o0, _ := inc[0].Other(a)
	o1, _ := inc[1].Other(a)
	if o0 > o1 {
		t.Error("IncidentLinks not sorted by far endpoint")
	}
}

func TestPathEqualLengthMismatch(t *testing.T) {
	if (Path{1, 2}).Equal(Path{1}) {
		t.Error("different lengths equal")
	}
	if (Path{1, 2}).Equal(Path{1, 3}) {
		t.Error("different members equal")
	}
	if !(Path{}).Equal(Path{}) {
		t.Error("empty paths unequal")
	}
}

// checkIncident asserts that every AD's incident links lead, in order, to
// exactly its ascending neighbours, agree with LinkBetween, and that
// IncidentLinks hands out a private copy of the shared view.
func checkIncident(t *testing.T, g *Graph, when string) {
	t.Helper()
	for _, id := range g.IDs() {
		nbs, inc := g.Neighbors(id), g.Incident(id)
		if len(inc) != len(nbs) || g.Degree(id) != len(nbs) {
			t.Fatalf("%s: %v has %d incident links, %d neighbours, degree %d", when, id, len(inc), len(nbs), g.Degree(id))
		}
		for i, l := range inc {
			other, ok := l.Other(id)
			if !ok || other != nbs[i] {
				t.Fatalf("%s: Incident(%v)[%d] = %v, want the link to %v", when, id, i, l, nbs[i])
			}
			if i > 0 && nbs[i-1] >= nbs[i] {
				t.Fatalf("%s: Neighbors(%v) not ascending: %v", when, id, nbs)
			}
			if want, _ := g.LinkBetween(id, other); l != want {
				t.Fatalf("%s: Incident(%v)[%d] = %v, LinkBetween = %v", when, id, i, l, want)
			}
		}
		if cp := g.IncidentLinks(id); len(cp) > 0 {
			cp[0].Cost = 9999
			if g.Incident(id)[0].Cost == 9999 {
				t.Fatalf("%s: IncidentLinks(%v) aliases the graph's adjacency", when, id)
			}
		}
	}
}

func TestIncidentOrderAcrossMutations(t *testing.T) {
	g := NewGraph()
	var ids []ID
	for i := 0; i < 7; i++ {
		ids = append(ids, g.AddAD("x", Transit, Regional))
	}
	add := func(g *Graph, i, j int) {
		t.Helper()
		if err := g.AddLink(Link{A: ids[i], B: ids[j], Cost: uint32(10*i + j)}); err != nil {
			t.Fatal(err)
		}
	}
	// Interleave adds (far endpoints out of order, both orientations),
	// removals (first, middle, last position) and clones.
	for _, p := range [][2]int{{3, 5}, {3, 0}, {6, 3}, {3, 2}, {1, 3}, {4, 3}, {0, 6}, {5, 6}} {
		add(g, p[0], p[1])
		checkIncident(t, g, "after AddLink")
	}
	g.RemoveLink(ids[3], ids[0])
	checkIncident(t, g, "after removing the first")
	c := g.Clone()
	checkIncident(t, c, "clone")
	c.RemoveLink(ids[6], ids[3])
	c.RemoveLink(ids[2], ids[3])
	add(c, 0, 3)
	add(c, 2, 6)
	checkIncident(t, c, "mutated clone")
	checkIncident(t, g, "original after the clone mutated")
	if n := len(g.Incident(ids[3])); n != 5 {
		t.Errorf("original's Incident(%v) has %d links after its clone changed, want 5", ids[3], n)
	}
	if c.HasLink(ids[3], ids[6]) || !g.HasLink(ids[3], ids[6]) {
		t.Error("RemoveLink on the clone and the original disagree with HasLink")
	}
	g.RemoveLink(ids[5], ids[3])
	add(g, 3, 0)
	checkIncident(t, g, "original mutated after cloning")
	checkIncident(t, c, "clone after the original mutated")
	if n := len(c.Incident(ids[3])); n != 4 {
		t.Errorf("clone's Incident(%v) has %d links after the original changed, want 4", ids[3], n)
	}
}

func TestLoopFreeLongPath(t *testing.T) {
	// Past the pairwise cut-off LoopFree switches to a set; both sides of
	// the cut-off must agree on a repeat at either end.
	for _, n := range []int{2, 31, 32, 33, 100} {
		p := make(Path, n)
		for i := range p {
			p[i] = ID(i + 1)
		}
		if !p.LoopFree() {
			t.Errorf("len %d: distinct path reported a loop", n)
		}
		p[n-1] = p[0]
		if p.LoopFree() {
			t.Errorf("len %d: repeat of the first AD at the end not seen", n)
		}
	}
}

// TestVersionMovesWithEveryMutation: a compiled view of the graph detects
// staleness by Version, so every mutator that changes the graph must move
// it, a refused one must not, and a clone counts for itself.
func TestVersionMovesWithEveryMutation(t *testing.T) {
	g := NewGraph()
	last := g.Version()
	moved := func(op string, want bool) {
		t.Helper()
		if got := g.Version() != last; got != want {
			t.Errorf("%s: version moved = %v, want %v", op, got, want)
		}
		last = g.Version()
	}
	a := g.AddAD("a", Stub, Campus)
	moved("AddAD", true)
	if err := g.AddADWithID(40, "b", Stub, Campus); err != nil {
		t.Fatal(err)
	}
	moved("AddADWithID", true)
	if err := g.AddADWithID(40, "dup", Stub, Campus); err == nil {
		t.Fatal("duplicate ID accepted")
	}
	moved("refused AddADWithID", false)
	if err := g.AddLink(Link{A: a, B: 40}); err != nil {
		t.Fatal(err)
	}
	moved("AddLink", true)
	if err := g.AddLink(Link{A: 40, B: a}); err == nil {
		t.Fatal("duplicate link accepted")
	}
	moved("refused AddLink", false)

	c := g.Clone()
	if c.Version() != 0 {
		t.Errorf("clone starts at version %d, want 0", c.Version())
	}
	c.RemoveLink(a, 40)
	moved("RemoveLink on a clone", false)
	if c.Version() == 0 {
		t.Error("RemoveLink did not move the clone's version")
	}

	if !g.RemoveLink(40, a) {
		t.Fatal("link not removed")
	}
	moved("RemoveLink", true)
	g.RemoveLink(40, a)
	moved("RemoveLink of an absent link", false)
}

package synthesis

import (
	"strings"
	"testing"

	"repro/internal/ad"
	"repro/internal/policy"
	"repro/internal/wire"
)

// diamondDB builds src -(t1|t2)- dst with t1 the cheap transit.
func diamondDB(t *testing.T) (*ad.Graph, *policy.DB, ad.ID, ad.ID, ad.ID, ad.ID) {
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
	return g, policy.OpenDB(g), src, t1, t2, dst
}

func TestChangeAffectsPath(t *testing.T) {
	_, _, src, t1, t2, dst := diamondDB(t)
	via1 := ad.Path{src, t1, dst}

	cases := []struct {
		name string
		c    Change
		want bool
	}{
		{"link-down crossing", LinkDownChange(t1, dst), true},
		{"link-down crossing reversed", LinkDownChange(dst, t1), true},
		{"link-down elsewhere", LinkDownChange(src, t2), false},
		{"link-up never breaks", LinkUpChange(t1, dst), false},
		{"policy at transited AD", PolicyChangeOf(policy.TermsDelta{AD: t1}), true},
		{"policy at other AD", PolicyChangeOf(policy.TermsDelta{AD: t2}), false},
		{"full", FullChange(), true},
	}
	for _, tc := range cases {
		if got := tc.c.AffectsPath(via1); got != tc.want {
			t.Errorf("%s: AffectsPath = %v, want %v", tc.name, got, tc.want)
		}
	}
	// Policy changes taint transits, not endpoints: the source and
	// destination ADs advertise no transit terms a route depends on.
	if PolicyChangeOf(policy.TermsDelta{AD: src}).AffectsPath(via1) {
		t.Error("policy change at the source AD tainted the path")
	}
}

func TestChangeAffectsNegative(t *testing.T) {
	cases := []struct {
		name string
		c    Change
		want bool
	}{
		{"link-down cannot create routes", LinkDownChange(1, 2), false},
		{"link-up broadens", LinkUpChange(1, 2), true},
		{"narrowing policy", PolicyChangeOf(policy.TermsDelta{AD: 3, Removed: []policy.Key{{Advertiser: 3, Serial: 1}}}), false},
		{"broadening policy", PolicyChangeOf(policy.TermsDelta{AD: 3, Broadens: true}), true},
		{"full", FullChange(), true},
	}
	for _, tc := range cases {
		if got := tc.c.AffectsNegative(); got != tc.want {
			t.Errorf("%s: AffectsNegative = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestChangeZeroValueIsFull(t *testing.T) {
	var c Change
	if c.Kind != ChangeFull || !c.AffectsPath(ad.Path{1, 2}) || !c.AffectsNegative() {
		t.Fatalf("zero Change is not the sound full fallback: %+v", c)
	}
	if ChangeFull.String() != "full" || ChangeLinkDown.String() != "link-down" ||
		ChangeLinkUp.String() != "link-up" || ChangePolicy.String() != "policy" {
		t.Error("ChangeKind.String mismatch")
	}
}

func TestFootprintOf(t *testing.T) {
	g, db, src, t1, _, dst := diamondDB(t)
	req := policy.Request{Src: src, Dst: dst}
	res := Compile(g, db).FindRoute(req)
	if !res.Found || !res.Path.Equal(ad.Path{src, t1, dst}) {
		t.Fatalf("setup: route = %+v", res)
	}

	fp := Compile(g, db).Footprint(req, res.Path)
	wantLinks := [][2]ad.ID{ad.LinkKey(src, t1), ad.LinkKey(t1, dst)}
	if len(fp.Links) != len(wantLinks) {
		t.Fatalf("links = %v, want %v", fp.Links, wantLinks)
	}
	for i := range wantLinks {
		if fp.Links[i] != wantLinks[i] {
			t.Fatalf("links = %v, want %v", fp.Links, wantLinks)
		}
	}
	// One transit AD, so one admitting term: the cheapest one at t1.
	if len(fp.Terms) != 1 || fp.Terms[0].Advertiser != t1 {
		t.Fatalf("terms = %v, want one key at %v", fp.Terms, t1)
	}
	term, ok := db.PermitsTransit(t1, req, src, dst)
	if !ok || fp.Terms[0] != term.Key() {
		t.Fatalf("footprint term %v != cheapest permitting term %v", fp.Terms[0], term.Key())
	}

	// Degenerate paths carry no dependencies.
	if fp := Compile(g, db).Footprint(req, ad.Path{src}); len(fp.Links) != 0 || len(fp.Terms) != 0 {
		t.Fatalf("single-AD path footprint = %+v", fp)
	}
}

// TestWorldAfter: a what-if batch lands on a clone, one Change per step, and
// a refused step — absent link, full invalidation — names its position.
func TestWorldAfter(t *testing.T) {
	g, db, src, t1, _, _ := diamondDB(t)
	w := NewWorld(g, db)
	after, chs, err := w.After([]wire.PlanStep{
		{Op: wire.CtlFail, A: src, B: t1}, {Op: wire.CtlRestore, A: src, B: t1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(chs) != 2 || chs[0].Kind != ChangeLinkDown || chs[1].Kind != ChangeLinkUp {
		t.Errorf("changes %+v, want link-down then link-up", chs)
	}
	if _, ok := after.G.LinkBetween(src, t1); !ok || len(after.Failed) != 0 {
		t.Errorf("restore did not put the link back in the clone")
	}
	if _, _, err := w.After([]wire.PlanStep{{Op: wire.CtlFail, A: src, B: t1}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := g.LinkBetween(src, t1); !ok || len(w.Failed) != 0 {
		t.Fatal("After mutated the world it was called on")
	}
	for _, tc := range []struct {
		steps []wire.PlanStep
		want  string
	}{
		{nil, "empty plan"},
		{[]wire.PlanStep{{Op: wire.CtlFail, A: src, B: t1}, {Op: wire.CtlFail, A: src, B: t1}}, "step 2: no link"},
		{[]wire.PlanStep{{Op: wire.CtlInvalidate}}, "step 1: invalidate is not plannable"},
	} {
		if _, _, err := w.After(tc.steps); err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("After(%v) = %v, want %q", tc.steps, err, tc.want)
		}
	}
}

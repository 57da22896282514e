package policy

import (
	"math/bits"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/ad"
)

func TestClassSet(t *testing.T) {
	s := ClassSetOf(0, 3, 31)
	if !s.Contains(0) || !s.Contains(3) || !s.Contains(31) {
		t.Error("ClassSetOf members missing")
	}
	if s.Contains(1) || s.Contains(32) {
		t.Error("ClassSet contains spurious members")
	}
	if bits.OnesCount32(uint32(s)) != 3 {
		t.Errorf("%d classes, want 3", bits.OnesCount32(uint32(s)))
	}
	if AllClasses != 1<<32-1 {
		t.Errorf("AllClasses = %b, want all 32 classes", AllClasses)
	}
	// Out-of-range classes ignored by constructor.
	if ClassSetOf(40) != 0 {
		t.Error("out-of-range class admitted")
	}
}

func TestADSet(t *testing.T) {
	u := Universal()
	if !u.IsUniversal() || !u.Contains(123) {
		t.Error("Universal set wrong")
	}
	if u.String() != "*" {
		t.Errorf("Universal String = %q", u.String())
	}
	s := SetOf(3, 1)
	if s.IsUniversal() {
		t.Error("explicit set reported universal")
	}
	if !s.Contains(1) || !s.Contains(3) || s.Contains(2) {
		t.Error("SetOf membership wrong")
	}
	m := s.ids
	if len(m) != 2 || m[0] != 1 || m[1] != 3 {
		t.Errorf("Members = %v", m)
	}
	if s.String() != "{AD1,AD3}" {
		t.Errorf("String = %q", s.String())
	}
	var empty ADSet
	if empty.Contains(1) || empty.IsUniversal() || empty.Size() != 0 {
		t.Error("zero ADSet should be empty")
	}
}

func TestHourWindow(t *testing.T) {
	cases := []struct {
		w    HourWindow
		h    uint8
		want bool
	}{
		{Always, 0, true},
		{Always, 23, true},
		{HourWindow{9, 17}, 9, true},
		{HourWindow{9, 17}, 16, true},
		{HourWindow{9, 17}, 17, false},
		{HourWindow{9, 17}, 3, false},
		{HourWindow{22, 6}, 23, true}, // wraps midnight
		{HourWindow{22, 6}, 2, true},
		{HourWindow{22, 6}, 12, false},
		{HourWindow{5, 5}, 5, false}, // empty window
		{Always, 25, true},           // hour normalized mod 24
	}
	for _, tc := range cases {
		if got := tc.w.Contains(tc.h); got != tc.want {
			t.Errorf("window %+v contains %d = %v, want %v", tc.w, tc.h, got, tc.want)
		}
	}
}

func TestTermPermits(t *testing.T) {
	term := Term{
		Advertiser: 5,
		Sources:    SetOf(1, 2),
		Dests:      Universal(),
		PrevADs:    SetOf(4),
		NextADs:    SetOf(6),
		QOS:        ClassSetOf(0, 1),
		UCI:        ClassSetOf(0),
		Hours:      Always,
	}
	base := Request{Src: 1, Dst: 9, QOS: 0, UCI: 0, Hour: 12}
	if !term.Permits(base, 4, 6) {
		t.Error("expected permit")
	}
	bad := base
	bad.Src = 3
	if term.Permits(bad, 4, 6) {
		t.Error("wrong source admitted")
	}
	if term.Permits(base, 7, 6) {
		t.Error("wrong prev admitted")
	}
	if term.Permits(base, 4, 7) {
		t.Error("wrong next admitted")
	}
	badQ := base
	badQ.QOS = 2
	if term.Permits(badQ, 4, 6) {
		t.Error("unoffered QOS admitted")
	}
	badU := base
	badU.UCI = 1
	if term.Permits(badU, 4, 6) {
		t.Error("unadmitted UCI accepted")
	}
}

func TestOpenTermPermitsEverything(t *testing.T) {
	term := OpenTerm(5, 1)
	f := func(src, dst, prev, next uint32, qos, uci, hour uint8) bool {
		req := Request{Src: ad.ID(src), Dst: ad.ID(dst), QOS: QOS(qos % 32), UCI: UCI(uci % 32), Hour: hour % 24}
		return term.Permits(req, ad.ID(prev), ad.ID(next))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCriteria(t *testing.T) {
	c := Criteria{Avoid: SetOf(5), MaxHops: 3}
	if !c.Accepts(ad.Path{1, 2, 3}) {
		t.Error("clean path rejected")
	}
	if c.Accepts(ad.Path{1, 5, 3}) {
		t.Error("avoided transit accepted")
	}
	// Avoided AD as an endpoint is fine: avoid applies to transit only.
	if !c.Accepts(ad.Path{5, 2, 3}) {
		t.Error("avoided AD as source rejected")
	}
	if c.Accepts(ad.Path{1, 2, 3, 4, 6}) {
		t.Error("over-hop path accepted")
	}
	if !(Criteria{}).Accepts(ad.Path{1, 2, 3, 4, 5, 6, 7}) {
		t.Error("open criteria rejected a path")
	}
	// Universal avoid: only direct paths allowed.
	ua := Criteria{Avoid: Universal()}
	if !ua.Accepts(ad.Path{1, 2}) || ua.Accepts(ad.Path{1, 3, 2}) {
		t.Error("universal avoid semantics wrong")
	}
}

// lineGraph builds 1-2-3-4-5 with AD classes: ends stubs, middle transit.
func lineGraph(t *testing.T) *ad.Graph {
	t.Helper()
	g := ad.NewGraph()
	ids := make([]ad.ID, 5)
	for i := range ids {
		class := ad.Transit
		if i == 0 || i == len(ids)-1 {
			class = ad.Stub
		}
		ids[i] = g.AddAD("n", class, ad.Regional)
	}
	for i := 0; i+1 < len(ids); i++ {
		if err := g.AddLink(ad.Link{A: ids[i], B: ids[i+1], Cost: 1}); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestDBPathLegal(t *testing.T) {
	g := lineGraph(t)
	db := OpenDB(g)
	req := Request{Src: 1, Dst: 5}
	if !db.PathLegal(ad.Path{1, 2, 3, 4, 5}, req) {
		t.Error("open path rejected")
	}
	if db.PathLegal(ad.Path{1, 2, 3}, req) {
		t.Error("path not ending at dst accepted")
	}
	if db.PathLegal(ad.Path{2, 3, 4, 5}, req) {
		t.Error("path not starting at src accepted")
	}
	if db.PathLegal(ad.Path{1, 2, 3, 2, 4, 5}, req) {
		t.Error("looping path accepted")
	}
	// Stub AD as transit must be illegal (no terms advertised).
	db2 := NewDB()
	db2.Add(OpenTerm(2, 0))
	db2.Add(OpenTerm(4, 0)) // 3 has no term
	if db2.PathLegal(ad.Path{1, 2, 3, 4, 5}, req) {
		t.Error("path through termless AD accepted")
	}
}

func TestDBPathLegalRespectsCriteria(t *testing.T) {
	g := lineGraph(t)
	db := OpenDB(g)
	db.SetCriteria(1, Criteria{Avoid: SetOf(3)})
	req := Request{Src: 1, Dst: 5}
	if db.PathLegal(ad.Path{1, 2, 3, 4, 5}, req) {
		t.Error("path violating source criteria accepted")
	}
}

func TestDBPermitsTransitPicksCheapest(t *testing.T) {
	db := NewDB()
	t1 := OpenTerm(2, 0)
	t1.Cost = 5
	db.Add(t1)
	t2 := OpenTerm(2, 0)
	t2.Cost = 2
	db.Add(t2)
	got, ok := db.PermitsTransit(2, Request{Src: 1, Dst: 3}, 1, 3)
	if !ok || got.Cost != 2 {
		t.Errorf("PermitsTransit = %+v,%v want cost 2", got, ok)
	}
}

func TestTransitOf(t *testing.T) {
	db := NewDB()
	// AD 2: two terms offering class 0, the cheaper second, one of them
	// also class 1; none offers class 2.
	a := Term{Advertiser: 2, Sources: SetOf(5), Dests: SetOf(7), QOS: ClassSetOf(0, 1), UCI: ClassSetOf(0), Hours: Always, Cost: 6}
	b := Term{Advertiser: 2, Sources: SetOf(4, 5), Dests: SetOf(8), QOS: ClassSetOf(0), UCI: ClassSetOf(3), Hours: Always, Cost: 2}
	db.Add(a)
	db.Add(b)
	// AD 3: one term with a universal destination set beside a narrow one.
	db.Add(Term{Advertiser: 3, Sources: SetOf(1), Dests: Universal(), QOS: ClassSetOf(0), UCI: AllClasses, Hours: Always, Cost: 1})
	db.Add(Term{Advertiser: 3, Sources: SetOf(1), Dests: SetOf(9), QOS: ClassSetOf(0), UCI: AllClasses, Hours: Always, Cost: 4})

	tr := db.TransitOf(2, 3)
	if want := []bool{true, true, false}; !slices.Equal(tr.OK, want) {
		t.Errorf("OK = %v, want %v", tr.OK, want)
	}
	if tr.Cost[0] != 2 || tr.Cost[1] != 6 {
		t.Errorf("Cost = %v, want the cheapest per class: [2 6 _]", tr.Cost)
	}
	if !tr.Sources.Equal(SetOf(4, 5)) || tr.UCI != ClassSetOf(0, 3) || !tr.Dests.Equal(SetOf(7, 8)) {
		t.Errorf("unions = %v %b %v, want {4 5} classes {0 3} dests {7 8}", tr.Sources, tr.UCI, tr.Dests)
	}
	if tr.Dests.Contains(9) {
		t.Error("AD 2 exports a destination no term names")
	}

	if tr := db.TransitOf(3, 1); !tr.Dests.IsUniversal() || !tr.Dests.Contains(42) || tr.Cost[0] != 1 {
		t.Errorf("universal-destination term: Dests=%v Cost=%v", tr.Dests, tr.Cost)
	}

	none := db.TransitOf(6, 2)
	if len(none.OK) != 2 || none.OK[0] || none.OK[1] || !none.Sources.Empty() || none.UCI != 0 || !none.Dests.Empty() {
		t.Errorf("AD with no terms: %+v, want no class offered and empty sets", none)
	}
}

func TestDBPathCost(t *testing.T) {
	g := lineGraph(t)
	db := NewDB()
	for _, id := range []ad.ID{2, 3, 4} {
		term := OpenTerm(id, 0)
		term.Cost = 10
		db.Add(term)
	}
	req := Request{Src: 1, Dst: 5}
	cost, ok := db.PathCost(g, ad.Path{1, 2, 3, 4, 5}, req)
	if !ok {
		t.Fatal("legal path cost not computed")
	}
	// 4 links at cost 1 + 3 transits at cost 10.
	if cost != 34 {
		t.Errorf("cost = %d, want 34", cost)
	}
	if _, ok := db.PathCost(g, ad.Path{1, 3, 5}, req); ok {
		t.Error("cost computed for disconnected path")
	}
}

func TestDBSerialAssignment(t *testing.T) {
	db := NewDB()
	a := db.Add(OpenTerm(7, 0))
	b := db.Add(OpenTerm(7, 0))
	if a.Serial == 0 || b.Serial == 0 || a.Serial == b.Serial {
		t.Errorf("serials not unique: %d %d", a.Serial, b.Serial)
	}
	c := db.Add(OpenTerm(7, 100))
	if c.Serial != 100 {
		t.Errorf("explicit serial overridden: %d", c.Serial)
	}
	d := db.Add(OpenTerm(7, 0))
	if d.Serial <= 100 {
		t.Errorf("serial after explicit 100 = %d, want > 100", d.Serial)
	}
	if db.NumTerms() != 4 {
		t.Errorf("NumTerms = %d, want 4", db.NumTerms())
	}
}

func TestDBClone(t *testing.T) {
	db := NewDB()
	db.Add(OpenTerm(2, 0))
	db.SetCriteria(1, Criteria{MaxHops: 2})
	c := db.Clone()
	c.Add(OpenTerm(3, 0))
	if db.NumTerms() != 1 {
		t.Error("clone Add leaked into original")
	}
	if c.CriteriaFor(1).MaxHops != 2 {
		t.Error("criteria not cloned")
	}
	if got := c.Advertisers(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("Advertisers = %v", got)
	}
}

func TestGenerateOpenDefaults(t *testing.T) {
	g := lineGraph(t)
	db := Generate(g, GenConfig{Seed: 1})
	req := Request{Src: 1, Dst: 5}
	if !db.PathLegal(ad.Path{1, 2, 3, 4, 5}, req) {
		t.Error("default generated policy rejects the only path")
	}
	// Stubs advertise nothing.
	if len(db.Terms(1)) != 0 || len(db.Terms(5)) != 0 {
		t.Error("stub AD advertised transit terms")
	}
	// Transits advertise exactly one open term.
	for _, id := range []ad.ID{2, 3, 4} {
		ts := db.Terms(id)
		if len(ts) != 1 {
			t.Fatalf("transit %v has %d terms, want 1", id, len(ts))
		}
		if !ts[0].Sources.IsUniversal() || !ts[0].Dests.IsUniversal() {
			t.Errorf("default term for %v is restricted: %v", id, ts[0])
		}
	}
}

func TestGenerateRestriction(t *testing.T) {
	g := lineGraph(t)
	cfg := GenConfig{Seed: 42, SourceRestrictionProb: 1, SourceFraction: 0.3}
	db := Generate(g, cfg)
	for _, id := range []ad.ID{2, 3, 4} {
		ts := db.Terms(id)
		if len(ts) != 1 {
			t.Fatalf("transit %v term count %d", id, len(ts))
		}
		if ts[0].Sources.IsUniversal() {
			t.Errorf("transit %v should be source-restricted", id)
		}
	}
}

func TestGenerateGranularity(t *testing.T) {
	g := lineGraph(t)
	db := Generate(g, GenConfig{Seed: 7, TermsPerTransit: 4})
	for _, id := range []ad.ID{2, 3, 4} {
		if got := len(db.Terms(id)); got != 4 {
			t.Errorf("transit %v terms = %d, want 4", id, got)
		}
	}
	// The union of destination partitions must cover all ADs, so any
	// destination remains reachable through any transit.
	req := Request{Src: 1, Dst: 5}
	if !db.PathLegal(ad.Path{1, 2, 3, 4, 5}, req) {
		t.Error("partitioned terms broke coverage")
	}
}

func TestGenerateDeterminism(t *testing.T) {
	g := lineGraph(t)
	cfg := GenConfig{Seed: 9, SourceRestrictionProb: 0.5, QOSClasses: 4, TimeWindowProb: 0.5}
	a := Generate(g, cfg)
	b := Generate(g, cfg)
	if a.NumTerms() != b.NumTerms() {
		t.Fatalf("term counts differ: %d vs %d", a.NumTerms(), b.NumTerms())
	}
	for _, id := range g.IDs() {
		ta, tb := a.Terms(id), b.Terms(id)
		if len(ta) != len(tb) {
			t.Fatalf("terms for %v differ in count", id)
		}
		for i := range ta {
			if ta[i].String() != tb[i].String() || ta[i].QOS != tb[i].QOS {
				t.Errorf("term %d for %v differs: %v vs %v", i, id, ta[i], tb[i])
			}
		}
	}
}

func TestGenerateHybridRestricted(t *testing.T) {
	g := ad.NewGraph()
	s1 := g.AddAD("s1", ad.Stub, ad.Campus)
	h := g.AddAD("h", ad.Hybrid, ad.Regional)
	s2 := g.AddAD("s2", ad.Stub, ad.Campus)
	if err := g.AddLink(ad.Link{A: s1, B: h}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(ad.Link{A: h, B: s2}); err != nil {
		t.Fatal(err)
	}
	db := Generate(g, GenConfig{Seed: 3})
	ts := db.Terms(h)
	if len(ts) != 1 {
		t.Fatalf("hybrid terms = %d, want 1", len(ts))
	}
	if ts[0].Sources.IsUniversal() {
		t.Error("hybrid AD advertised unrestricted sources")
	}
}

func TestGenConfigNormalizeClamps(t *testing.T) {
	c := GenConfig{SourceRestrictionProb: 2, QOSClasses: 100, TermsPerTransit: -1}.Normalize()
	if c.SourceRestrictionProb != 1 {
		t.Errorf("prob not clamped: %v", c.SourceRestrictionProb)
	}
	if c.QOSClasses != MaxClasses {
		t.Errorf("QOSClasses not clamped: %d", c.QOSClasses)
	}
	if c.TermsPerTransit != 1 {
		t.Errorf("TermsPerTransit not normalized: %d", c.TermsPerTransit)
	}
}

func TestRequestString(t *testing.T) {
	s := Request{Src: 1, Dst: 2, QOS: 3, UCI: 4, Hour: 5}.String()
	if s != "AD1->AD2 qos=3 uci=4 h=5" {
		t.Errorf("Request.String = %q", s)
	}
}

func TestTermKey(t *testing.T) {
	term := OpenTerm(9, 4)
	if term.Key() != (Key{Advertiser: 9, Serial: 4}) {
		t.Errorf("Key = %+v", term.Key())
	}
}

func TestADSetOps(t *testing.T) {
	a := SetOf(1, 2, 3)
	b := SetOf(2, 3, 4)
	inter := a.Intersect(b)
	if inter.Contains(1) || !inter.Contains(2) || !inter.Contains(3) || inter.Contains(4) {
		t.Errorf("Intersect = %v", inter)
	}
	uni := a.Union(b)
	for _, id := range []ad.ID{1, 2, 3, 4} {
		if !uni.Contains(id) {
			t.Errorf("Union missing %v", id)
		}
	}
	if uni.Contains(5) {
		t.Error("Union has spurious member")
	}
	// Universal interactions.
	u := Universal()
	if got := u.Intersect(a); got.IsUniversal() || !got.Contains(1) || got.Contains(4) {
		t.Errorf("Universal∩a = %v", got)
	}
	if got := a.Intersect(u); !got.Contains(3) {
		t.Errorf("a∩Universal = %v", got)
	}
	if !a.Union(u).IsUniversal() || !u.Union(a).IsUniversal() {
		t.Error("union with universal not universal")
	}
	// Empty.
	if !SetOf().Empty() || a.Empty() || u.Empty() {
		t.Error("Empty wrong")
	}
	if !SetOf(1).Intersect(SetOf(2)).Empty() {
		t.Error("disjoint intersect not empty")
	}
}

func TestCriteriaADs(t *testing.T) {
	db := NewDB()
	if len(db.CriteriaADs()) != 0 {
		t.Error("empty DB has criteria ADs")
	}
	db.SetCriteria(5, Criteria{MaxHops: 3})
	db.SetCriteria(2, Criteria{MaxHops: 1})
	got := db.CriteriaADs()
	if len(got) != 2 || got[0] != 2 || got[1] != 5 {
		t.Errorf("CriteriaADs = %v", got)
	}
}

func TestWithTerms(t *testing.T) {
	db := NewDB()
	db.Add(OpenTerm(1, 0))
	db.Add(OpenTerm(2, 0))
	db.SetCriteria(9, Criteria{MaxHops: 4})

	replacement := OpenTerm(0, 7) // advertiser forced to target
	replacement.Cost = 3
	out := db.WithTerms(2, []Term{replacement})

	// Original untouched.
	if len(db.Terms(2)) != 1 || db.Terms(2)[0].Cost != 1 {
		t.Error("WithTerms mutated original")
	}
	// Replacement applied with advertiser forced.
	ts := out.Terms(2)
	if len(ts) != 1 || ts[0].Cost != 3 || ts[0].Advertiser != 2 {
		t.Errorf("replaced terms = %+v", ts)
	}
	// Other advertisers and criteria preserved.
	if len(out.Terms(1)) != 1 {
		t.Error("other advertiser lost")
	}
	if out.CriteriaFor(9).MaxHops != 4 {
		t.Error("criteria lost")
	}
	// Removal via empty set.
	none := db.WithTerms(1, nil)
	if len(none.Terms(1)) != 0 {
		t.Error("WithTerms(nil) did not remove terms")
	}
}

func TestGenerateTimeWindows(t *testing.T) {
	g := lineGraph(t)
	db := Generate(g, GenConfig{Seed: 6, TimeWindowProb: 1})
	windowed := 0
	for _, id := range []ad.ID{2, 3, 4} {
		for _, term := range db.Terms(id) {
			if term.Hours != Always {
				windowed++
				// Generated windows span 4-19 hours; verify they
				// admit some hour and reject another.
				admits, rejects := false, false
				for h := uint8(0); h < 24; h++ {
					if term.Hours.Contains(h) {
						admits = true
					} else {
						rejects = true
					}
				}
				if !admits || !rejects {
					t.Errorf("degenerate window %+v", term.Hours)
				}
			}
		}
	}
	if windowed == 0 {
		t.Error("TimeWindowProb=1 produced no windowed terms")
	}
}

func TestGenerateMaxTermCost(t *testing.T) {
	g := lineGraph(t)
	db := Generate(g, GenConfig{Seed: 7, MaxTermCost: 5, TermsPerTransit: 4})
	seen := map[uint32]bool{}
	for _, id := range []ad.ID{2, 3, 4} {
		for _, term := range db.Terms(id) {
			if term.Cost < 1 || term.Cost > 5 {
				t.Errorf("cost %d out of [1,5]", term.Cost)
			}
			seen[term.Cost] = true
		}
	}
	if len(seen) < 2 {
		t.Error("MaxTermCost produced uniform costs")
	}
}

// TestTransitCostMatchesTermScan holds the in-place cheapest-term scan to
// the plain one it replaced: every term copied out and tested with each
// constraint on its own, in the documented order, first cheapest winning.
func TestTransitCostMatchesTermScan(t *testing.T) {
	g := lineGraph(t)
	db := Generate(g, GenConfig{
		Seed: 7, SourceRestrictionProb: 0.6, SourceFraction: 0.5,
		DestRestrictionProb: 0.5, QOSClasses: 3, QOSCoverage: 0.5,
		UCIClasses: 2, UCICoverage: 0.5, TimeWindowProb: 0.5,
		TermsPerTransit: 3, MaxTermCost: 4,
	})
	ids := g.IDs()
	permitted := 0
	for _, transit := range ids {
		for _, src := range ids {
			for _, dst := range ids {
				for class := 0; class < 6; class++ {
					req := Request{Src: src, Dst: dst, QOS: QOS(class % 3), UCI: UCI(class / 3), Hour: uint8(class * 5)}
					prev, next := ids[(int(src)+class)%len(ids)], ids[(int(dst)+class)%len(ids)]
					var want *Term
					for _, tm := range db.Terms(transit) {
						tm := tm
						ok := tm.Sources.Contains(req.Src) && tm.Dests.Contains(req.Dst) &&
							tm.PrevADs.Contains(prev) && tm.NextADs.Contains(next) &&
							tm.QOS.Contains(uint8(req.QOS)) && tm.UCI.Contains(uint8(req.UCI)) &&
							tm.Hours.Contains(req.Hour)
						if ok != tm.Permits(req, prev, next) {
							t.Fatalf("%v.Permits(%v, %v, %v) = %v, constraints say %v", tm, req, prev, next, !ok, ok)
						}
						if ok && (want == nil || tm.Cost < want.Cost) {
							want = &tm
						}
					}
					cost, ok := db.TransitCost(transit, req, prev, next)
					term, okT := db.PermitsTransit(transit, req, prev, next)
					if ok != (want != nil) || okT != ok {
						t.Fatalf("transit %v %v: TransitCost ok=%v PermitsTransit ok=%v, scan found %v", transit, req, ok, okT, want)
					}
					if want == nil {
						if cost != 0 || term.Key() != (Key{}) {
							t.Fatalf("transit %v %v: refused, yet cost %d term %v", transit, req, cost, term)
						}
						continue
					}
					permitted++
					if cost != want.Cost || term.Key() != want.Key() {
						t.Fatalf("transit %v %v: cost %d term %v, want %v", transit, req, cost, term.Key(), want)
					}
				}
			}
		}
	}
	if permitted == 0 {
		t.Fatal("generated policy permitted nothing: the comparison is vacuous")
	}
}

func TestDBPathCostIllegal(t *testing.T) {
	g := lineGraph(t)
	db := NewDB()
	for _, id := range []ad.ID{2, 4} { // 3 advertises nothing
		db.Add(OpenTerm(id, 0))
	}
	if c, ok := db.PathCost(g, ad.Path{1, 2, 3, 4, 5}, Request{Src: 1, Dst: 5}); ok || c != 0 {
		t.Errorf("PathCost through a transit without terms = %d,%v, want 0,false", c, ok)
	}
	db.Add(OpenTerm(3, 0))
	db.SetCriteria(1, Criteria{MaxHops: 3})
	if c, ok := db.PathCost(g, ad.Path{1, 2, 3, 4, 5}, Request{Src: 1, Dst: 5}); ok || c != 0 {
		t.Errorf("PathCost past the source's hop budget = %d,%v, want 0,false", c, ok)
	}
	if _, ok := db.PathCost(g, ad.Path{1, 2, 3}, Request{Src: 1, Dst: 3}); !ok {
		t.Error("PathCost refused a path inside the hop budget")
	}
}

package policy

import (
	"testing"

	"repro/internal/ad"
)

// diffWorld builds a two-term DB at AD 5 for the delta tests.
func diffWorld(t *testing.T) (*DB, Term, Term) {
	t.Helper()
	id := ad.ID(5)
	db := NewDB()
	a := OpenTerm(id, 0)
	b := OpenTerm(id, 0)
	b.Cost = 7
	db.Add(a)
	db.Add(b)
	terms := db.Terms(id)
	if len(terms) != 2 || terms[0].Serial == 0 || terms[1].Serial == 0 {
		t.Fatalf("setup: terms = %+v", terms)
	}
	return db, terms[0], terms[1]
}

func TestDiffTermsNoChange(t *testing.T) {
	db, a, b := diffWorld(t)
	d := db.DiffTerms(a.Advertiser, []Term{a, b})
	if !unchanged(d) {
		t.Fatalf("identical replacement produced delta %+v", d)
	}
	// Serial-stripped but content-identical terms pair with the existing
	// ones (stable term identity), so the delta is still empty.
	a2, b2 := a, b
	a2.Serial, b2.Serial = 0, 0
	if d := db.DiffTerms(a.Advertiser, []Term{a2, b2}); !unchanged(d) {
		t.Fatalf("content-identical replacement produced delta %+v", d)
	}
}

func TestDiffTermsRemoval(t *testing.T) {
	db, a, b := diffWorld(t)
	d := db.DiffTerms(a.Advertiser, []Term{a})
	if d.Broadens {
		t.Fatalf("pure removal reported Broadens: %+v", d)
	}
	if len(d.Removed) != 1 || d.Removed[0] != b.Key() {
		t.Fatalf("Removed = %+v, want [%v]", d.Removed, b.Key())
	}
}

func TestDiffTermsModification(t *testing.T) {
	db, a, b := diffWorld(t)
	// Same serial, new content: dependents of the old content must go and
	// the new content may admit previously refused routes.
	mod := b
	mod.Cost = 1
	d := db.DiffTerms(a.Advertiser, []Term{a, mod})
	if !d.Broadens {
		t.Fatalf("modification did not broaden: %+v", d)
	}
	if len(d.Removed) != 1 || d.Removed[0] != b.Key() {
		t.Fatalf("Removed = %+v, want [%v]", d.Removed, b.Key())
	}
}

func TestDiffTermsAddition(t *testing.T) {
	db, a, b := diffWorld(t)
	extra := OpenTerm(a.Advertiser, 0)
	extra.Cost = 99
	d := db.DiffTerms(a.Advertiser, []Term{a, b, extra})
	if !d.Broadens || len(d.Removed) != 0 {
		t.Fatalf("pure addition delta = %+v, want Broadens only", d)
	}
}

func TestDiffTermsMatchesSetTerms(t *testing.T) {
	db, a, b := diffWorld(t)
	mod := b
	mod.Cost = 3
	next := []Term{a, mod}
	want := db.DiffTerms(a.Advertiser, next)
	got := db.SetTerms(a.Advertiser, next)
	if want.AD != got.AD || want.Broadens != got.Broadens ||
		len(want.Removed) != len(got.Removed) {
		t.Fatalf("DiffTerms %+v != SetTerms %+v", want, got)
	}
	for i := range want.Removed {
		if want.Removed[i] != got.Removed[i] {
			t.Fatalf("DiffTerms %+v != SetTerms %+v", want, got)
		}
	}
	// DiffTerms must not have mutated: a second identical SetTerms is a
	// no-op delta.
	if d := db.SetTerms(a.Advertiser, next); !unchanged(d) {
		t.Fatalf("SetTerms after DiffTerms not idempotent: %+v", d)
	}
}

// unchanged reports whether a delta describes no change at all.
func unchanged(d TermsDelta) bool { return len(d.Removed) == 0 && !d.Broadens }

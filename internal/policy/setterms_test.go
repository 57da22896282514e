package policy

import (
	"testing"

	"repro/internal/ad"
)

func TestSetTermsReplacesInPlace(t *testing.T) {
	db := NewDB()
	db.Add(OpenTerm(3, 0))
	db.Add(OpenTerm(3, 0))
	db.Add(OpenTerm(5, 0))
	if got := len(db.Terms(3)); got != 2 {
		t.Fatalf("setup: %d terms", got)
	}

	repl := OpenTerm(9, 0) // advertiser field must be forced to 3
	repl.Cost = 7
	db.SetTerms(3, []Term{repl})

	terms := db.Terms(3)
	if len(terms) != 1 {
		t.Fatalf("len(Terms(3)) = %d, want 1", len(terms))
	}
	if terms[0].Advertiser != ad.ID(3) || terms[0].Cost != 7 {
		t.Fatalf("stored term = %+v", terms[0])
	}
	if len(db.Terms(5)) != 1 {
		t.Fatal("unrelated advertiser mutated")
	}

	db.SetTerms(5, nil)
	if len(db.Terms(5)) != 0 {
		t.Fatal("SetTerms(nil) should clear the advertiser")
	}
	for _, adv := range db.Advertisers() {
		if adv == ad.ID(5) {
			t.Fatal("cleared advertiser still listed")
		}
	}
}

// TestVersionMovesWithEveryMutation: a compiled view of the database
// detects staleness by Version, so Add, SetTerms (even to nothing) and
// SetCriteria must each move it; reads must not, and a clone counts for
// itself.
func TestVersionMovesWithEveryMutation(t *testing.T) {
	db := NewDB()
	last := db.Version()
	moved := func(op string, want bool) {
		t.Helper()
		if got := db.Version() != last; got != want {
			t.Errorf("%s: version moved = %v, want %v", op, got, want)
		}
		last = db.Version()
	}
	db.Add(OpenTerm(3, 0))
	moved("Add", true)
	db.SetTerms(3, []Term{OpenTerm(3, 0)})
	moved("SetTerms", true)
	db.SetTerms(3, nil)
	moved("SetTerms(nil)", true)
	db.SetCriteria(5, Criteria{MaxHops: 4})
	moved("SetCriteria", true)
	db.DiffTerms(3, []Term{OpenTerm(3, 0)})
	db.CriteriaFor(5)
	db.WithTerms(3, []Term{OpenTerm(3, 0)})
	moved("DiffTerms, CriteriaFor, WithTerms", false)
	c := db.Clone()
	if c.Version() != 0 {
		t.Errorf("clone starts at version %d, want 0", c.Version())
	}
	c.SetCriteria(5, Criteria{})
	moved("SetCriteria on a clone", false)
}

package policy

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/ad"
	"repro/internal/racecheck"
)

// modelSet is the reference ADSet is checked against: a flag and a map,
// written for obviousness.
type modelSet struct {
	all bool
	m   map[ad.ID]bool
}

func (m modelSet) members() []ad.ID {
	out := make([]ad.ID, 0, len(m.m))
	for id := range m.m {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

func (m modelSet) contains(id ad.ID) bool { return m.all || m.m[id] }

func (m modelSet) intersect(o modelSet) modelSet {
	switch {
	case m.all:
		return o
	case o.all:
		return m
	}
	out := modelSet{m: map[ad.ID]bool{}}
	for id := range m.m {
		if o.m[id] {
			out.m[id] = true
		}
	}
	return out
}

func (m modelSet) union(o modelSet) modelSet {
	if m.all || o.all {
		return modelSet{all: true, m: map[ad.ID]bool{}}
	}
	out := modelSet{m: map[ad.ID]bool{}}
	for id := range m.m {
		out.m[id] = true
	}
	for id := range o.m {
		out.m[id] = true
	}
	return out
}

func (m modelSet) equal(o modelSet) bool {
	return m.all == o.all && slices.Equal(m.members(), o.members())
}

func (m modelSet) String() string {
	if m.all {
		return "*"
	}
	parts := []string{}
	for _, id := range m.members() {
		parts = append(parts, fmt.Sprintf("AD%d", id))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// randomSet draws a universal set, an empty one, or up to eight IDs from a
// small range (so sets overlap), unsorted and with repeats; now and then one
// ID is far from the rest.
func randomSet(rng *rand.Rand) (ADSet, modelSet) {
	model := modelSet{m: map[ad.ID]bool{}}
	switch rng.Intn(6) {
	case 0:
		model.all = true
		return Universal(), model
	case 1:
		return SetOf(), model
	}
	ids := make([]ad.ID, 1+rng.Intn(8))
	for i := range ids {
		ids[i] = ad.ID(1 + rng.Intn(12))
		if rng.Intn(10) == 0 {
			ids[i] = 1 << 31
		}
		model.m[ids[i]] = true
	}
	return SetOf(ids...), model
}

// checkSet compares every read-only method of s against the model.
func checkSet(t *testing.T, what string, s ADSet, m modelSet) {
	t.Helper()
	if s.IsUniversal() != m.all || s.Empty() != (!m.all && len(m.m) == 0) || s.Size() != len(m.m) {
		t.Fatalf("%s = %v: universal %v, empty %v, size %d; model %v", what, s, s.IsUniversal(), s.Empty(), s.Size(), m)
	}
	if got, want := s.Members(), m.members(); !slices.Equal(got, want) {
		t.Fatalf("%s: Members %v, model %v", what, got, want)
	}
	var each []ad.ID
	s.Each(func(id ad.ID) { each = append(each, id) })
	if !slices.Equal(each, m.members()) {
		t.Fatalf("%s: Each visited %v, want %v ascending", what, each, m.members())
	}
	if s.String() != m.String() {
		t.Fatalf("%s: String %q, model %q", what, s.String(), m.String())
	}
	for _, id := range []ad.ID{0, 1, 5, 12, 13, 1 << 31, 1<<32 - 1} {
		if s.Contains(id) != m.contains(id) {
			t.Fatalf("%s = %v: Contains(%d) = %v", what, s, id, s.Contains(id))
		}
	}
	// Operations return canonical sets: the value Universal or SetOf builds.
	want := Universal()
	if !m.all {
		want = SetOf(m.members()...)
	}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("%s = %#v is not the canonical %#v", what, s, want)
	}
}

// TestADSetAgainstMapModel drives random sets and every exported ADSet
// method in lockstep with the map model.
func TestADSetAgainstMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for i := 0; i < 3000; i++ {
		a, am := randomSet(rng)
		b, bm := randomSet(rng)
		what := fmt.Sprintf("iteration %d", i)
		checkSet(t, what+" a", a, am)
		checkSet(t, what+" a∩b", a.Intersect(b), am.intersect(bm))
		checkSet(t, what+" a∪b", a.Union(b), am.union(bm))
		if a.Equal(b) != am.equal(bm) {
			t.Fatalf("%s: %v.Equal(%v) = %v", what, a, b, a.Equal(b))
		}
		if !a.Equal(a) || !a.Intersect(b).Equal(b.Intersect(a)) || !a.Union(b).Equal(b.Union(a)) {
			t.Fatalf("%s: Equal not reflexive or an operation not commutative on %v, %v", what, a, b)
		}
	}
}

func TestADSetEmptyIsOneValue(t *testing.T) {
	for name, s := range map[string]ADSet{
		"SetOf()":           SetOf(),
		"SetOf(nil...)":     SetOf([]ad.ID(nil)...),
		"SetOf([]{}...)":    SetOf([]ad.ID{}...),
		"disjoint ∩":        SetOf(1, 3).Intersect(SetOf(2, 4)),
		"empty ∩ universal": Universal().Intersect(SetOf()),
		"empty ∪ empty":     SetOf().Union(SetOf()),
	} {
		if !reflect.DeepEqual(s, ADSet{}) {
			t.Errorf("%s = %#v, want the zero ADSet", name, s)
		}
	}
}

func TestADSetMembersIsACopy(t *testing.T) {
	s := SetOf(2, 1)
	m := s.Members()
	m[0] = 9
	if !s.Contains(1) || s.Contains(9) {
		t.Errorf("writing Members' result changed the set: %v", s)
	}
}

var adSetSink ADSet

// TestAllocsADSet pins what the sorted-slice representation costs: lookups,
// comparisons and an intersection with the universal set allocate nothing,
// and building a set allocates its one slice.
func TestAllocsADSet(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	a, b, u := SetOf(1, 3, 5, 7), SetOf(1, 3, 5, 7), Universal()
	for name, fn := range map[string]func(){
		"Contains":            func() { _ = a.Contains(5) || a.Contains(6) },
		"Equal":               func() { _ = a.Equal(b) },
		"Size":                func() { _ = a.Size() },
		"Empty":               func() { _ = a.Empty() },
		"Intersect universal": func() { adSetSink = a.Intersect(u); adSetSink = u.Intersect(a) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s: %v allocs, want 0", name, n)
		}
	}
	if n := testing.AllocsPerRun(100, func() { adSetSink = SetOf(7, 3, 5, 3, 1) }); n != 1 {
		t.Errorf("SetOf: %v allocs, want 1", n)
	}
}

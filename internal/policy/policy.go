// Package policy models inter-AD routing policy as described in Breslau &
// Estrin (SIGCOMM 1990) §2.3 and §5.4: transit policies are expressed as
// Policy Terms (PTs) advertised by ADs, and source policies as route
// selection criteria.
//
// A Policy Term grants traversal of the advertising AD subject to
// constraints on the traffic source AD, destination AD, previous and next AD
// in the path, requested quality of service (QOS), User Class Identifier
// (UCI), and time of day. This is exactly the constraint vocabulary of the
// paper's §5.4.1 (path constraints on source/destination/previous/next AD,
// QOS, User Class, and "other global conditions").
package policy

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/ad"
)

// QOS is a quality-of-service class index. Class 0 is the default service.
// At most MaxClasses classes exist.
type QOS uint8

// UCI is a User Class Identifier. Class 0 is the default user class.
type UCI uint8

// MaxClasses bounds the number of distinct QOS or UCI classes, chosen so
// class sets fit a 32-bit mask in wire encodings.
const MaxClasses = 32

// ClassSet is a bitmask over QOS or UCI classes 0..31.
type ClassSet uint32

// AllClasses matches every class.
const AllClasses ClassSet = 1<<MaxClasses - 1

// ClassSetOf builds a set from the listed classes. Classes >= MaxClasses are
// ignored.
func ClassSetOf(classes ...uint8) ClassSet {
	var s ClassSet
	for _, c := range classes {
		if c < MaxClasses {
			s |= 1 << c
		}
	}
	return s
}

// Contains reports whether class c is in the set.
func (s ClassSet) Contains(c uint8) bool {
	return c < MaxClasses && s&(1<<c) != 0
}

// ADSet is a possibly-universal set of AD IDs used in policy term
// constraints. The zero value is the empty set; use Universal() for the
// wildcard.
type ADSet struct {
	all bool
	// ids holds the explicit members, ascending and each once; it is nil
	// for an empty or universal set, so every empty set is the zero value.
	// No method writes to it after construction: sets share it freely.
	ids []ad.ID
}

// Universal returns the set matching every AD.
func Universal() ADSet { return ADSet{all: true} }

// SetOf returns a set containing exactly the given ADs, in any order and
// with any repeats.
func SetOf(ids ...ad.ID) ADSet {
	if len(ids) == 0 {
		return ADSet{}
	}
	s := slices.Clone(ids)
	slices.Sort(s)
	return ADSet{ids: slices.Compact(s)}
}

// IsUniversal reports whether the set matches every AD.
func (s ADSet) IsUniversal() bool { return s.all }

// Contains reports whether id is in the set.
func (s ADSet) Contains(id ad.ID) bool {
	if s.all {
		return true
	}
	_, ok := slices.BinarySearch(s.ids, id)
	return ok
}

// Size returns the number of explicit members; it is 0 for the universal set
// (whose membership is implicit).
func (s ADSet) Size() int { return len(s.ids) }

// Each calls fn for every explicit member, in ascending order.
func (s ADSet) Each(fn func(ad.ID)) {
	for _, id := range s.ids {
		fn(id)
	}
}

// Intersect returns the set of ADs in both s and o.
func (s ADSet) Intersect(o ADSet) ADSet {
	if s.all {
		return o
	}
	if o.all {
		return s
	}
	var both []ad.ID
	for i, j := 0, 0; i < len(s.ids) && j < len(o.ids); {
		switch a, b := s.ids[i], o.ids[j]; {
		case a < b:
			i++
		case a > b:
			j++
		default:
			both = append(both, a)
			i++
			j++
		}
	}
	return ADSet{ids: both}
}

// Union returns the set of ADs in either s or o.
func (s ADSet) Union(o ADSet) ADSet {
	if s.all || o.all {
		return Universal()
	}
	if len(o.ids) == 0 {
		return s
	}
	if len(s.ids) == 0 {
		return o
	}
	either := make([]ad.ID, 0, len(s.ids)+len(o.ids))
	i, j := 0, 0
	for i < len(s.ids) && j < len(o.ids) {
		switch a, b := s.ids[i], o.ids[j]; {
		case a < b:
			either = append(either, a)
			i++
		case a > b:
			either = append(either, b)
			j++
		default:
			either = append(either, a)
			i++
			j++
		}
	}
	either = append(either, s.ids[i:]...)
	return ADSet{ids: append(either, o.ids[j:]...)}
}

// Empty reports whether the set matches no AD.
func (s ADSet) Empty() bool { return !s.all && len(s.ids) == 0 }

// Equal reports whether two sets have identical membership.
func (s ADSet) Equal(o ADSet) bool {
	return s.all == o.all && slices.Equal(s.ids, o.ids)
}

// String renders "*" for the universal set, else the sorted member list.
func (s ADSet) String() string {
	if s.all {
		return "*"
	}
	parts := make([]string, 0, len(s.ids))
	for _, id := range s.ids {
		parts = append(parts, id.String())
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// HourWindow is a time-of-day constraint in whole hours [Start, End).
// Start == 0 && End == 24 means always. If End < Start the window wraps
// midnight (e.g. 22..6).
type HourWindow struct {
	Start, End uint8
}

// Always is the unconstrained window.
var Always = HourWindow{Start: 0, End: 24}

// Contains reports whether hour h (0-23) is inside the window.
func (w HourWindow) Contains(h uint8) bool {
	h %= 24
	if w.Start == w.End {
		return false // empty window
	}
	if w == Always {
		return true
	}
	if w.Start < w.End {
		return h >= w.Start && h < w.End
	}
	return h >= w.Start || h < w.End
}

// Term is one Policy Term: the advertising AD grants transit across itself
// to traffic matching all of the constraints. Cost is the metric the AD
// charges for the traversal (added to path cost during synthesis).
type Term struct {
	// Advertiser is the AD whose traversal this term permits.
	Advertiser ad.ID
	// Serial disambiguates multiple terms from one advertiser.
	Serial uint32
	// Sources constrains the origin AD of the traffic.
	Sources ADSet
	// Dests constrains the destination AD of the traffic.
	Dests ADSet
	// PrevADs constrains the AD from which traffic may enter.
	PrevADs ADSet
	// NextADs constrains the AD to which traffic may exit.
	NextADs ADSet
	// QOS is the set of service classes the term offers.
	QOS ClassSet
	// UCI is the set of user classes the term admits.
	UCI ClassSet
	// Hours is the time-of-day window during which the term is valid.
	Hours HourWindow
	// Cost is the advertised metric for crossing the AD under this term.
	Cost uint32
}

// Key uniquely identifies a term.
type Key struct {
	Advertiser ad.ID
	Serial     uint32
}

// Key returns the term's unique key.
func (t Term) Key() Key { return Key{Advertiser: t.Advertiser, Serial: t.Serial} }

// EqualContent reports whether two terms are identical apart from their
// serial numbers. SetTerms uses it to carry a term's key across a
// replacement, so scoped cache invalidation can tell "this term survived"
// from "this term changed".
func (t Term) EqualContent(o Term) bool {
	return t.Advertiser == o.Advertiser &&
		t.Sources.Equal(o.Sources) &&
		t.Dests.Equal(o.Dests) &&
		t.PrevADs.Equal(o.PrevADs) &&
		t.NextADs.Equal(o.NextADs) &&
		t.QOS == o.QOS &&
		t.UCI == o.UCI &&
		t.Hours == o.Hours &&
		t.Cost == o.Cost
}

// OpenTerm returns the least restrictive term for adID: all sources, dests,
// neighbors, classes, and hours, with cost 1. The paper recommends ADs
// "adopt the least restrictive policies possible" (§2.3); this is that
// policy.
func OpenTerm(adID ad.ID, serial uint32) Term {
	return Term{
		Advertiser: adID,
		Serial:     serial,
		Sources:    Universal(),
		Dests:      Universal(),
		PrevADs:    Universal(),
		NextADs:    Universal(),
		QOS:        AllClasses,
		UCI:        AllClasses,
		Hours:      Always,
		Cost:       1,
	}
}

// Request identifies a traffic class asking for a route: who is sending,
// to whom, with what service requirements, and when.
type Request struct {
	Src, Dst ad.ID
	QOS      QOS
	UCI      UCI
	Hour     uint8
}

// String implements fmt.Stringer.
func (r Request) String() string {
	return fmt.Sprintf("%v->%v qos=%d uci=%d h=%d", r.Src, r.Dst, r.QOS, r.UCI, r.Hour)
}

// Permits reports whether this term allows the advertiser to be traversed by
// traffic for req entering from prev and leaving toward next.
func (t Term) Permits(req Request, prev, next ad.ID) bool {
	return t.permits(req, prev, next)
}

// permits is Permits without the copy of the term: the bitmask and hour
// tests run before the four set lookups, which may each binary-search.
func (t *Term) permits(req Request, prev, next ad.ID) bool {
	return t.QOS.Contains(uint8(req.QOS)) &&
		t.UCI.Contains(uint8(req.UCI)) &&
		t.Hours.Contains(req.Hour) &&
		t.Sources.Contains(req.Src) &&
		t.Dests.Contains(req.Dst) &&
		t.PrevADs.Contains(prev) &&
		t.NextADs.Contains(next)
}

// String implements fmt.Stringer.
func (t Term) String() string {
	return fmt.Sprintf("PT{%v#%d src=%v dst=%v prev=%v next=%v cost=%d}",
		t.Advertiser, t.Serial, t.Sources, t.Dests, t.PrevADs, t.NextADs, t.Cost)
}

// Criteria is a source AD's route selection policy (§2.3 "route selection
// criteria"): which ADs to avoid, a hop budget, and ADs the source prefers
// to route through when there is a choice.
type Criteria struct {
	// Avoid lists ADs the source refuses to route through.
	Avoid ADSet
	// MaxHops caps the AD-path length (0 = unlimited).
	MaxHops int
	// Prefer lists ADs whose presence in a path makes it preferred when
	// costs tie.
	Prefer ADSet
}

// Accepts reports whether the source's criteria allow path.
func (c Criteria) Accepts(path ad.Path) bool {
	if c.MaxHops > 0 && path.Hops() > c.MaxHops {
		return false
	}
	if c.Avoid.IsUniversal() {
		// An avoid-everything policy still allows the direct path
		// (only source and destination, no transit).
		return len(path) <= 2
	}
	for i := 1; i < len(path)-1; i++ {
		if c.Avoid.Contains(path[i]) {
			return false
		}
	}
	return true
}

// DB is the global policy database: the set of policy terms advertised by
// each AD, plus per-source selection criteria. A DB plays two roles: it is
// the ground truth an oracle evaluates against, and the content that
// link-state protocols flood.
type DB struct {
	terms    map[ad.ID][]Term
	criteria map[ad.ID]Criteria
	serial   map[ad.ID]uint32
	// version counts mutations; see Version.
	version uint64
}

// NewDB returns an empty policy database.
func NewDB() *DB {
	return &DB{
		terms:    make(map[ad.ID][]Term),
		criteria: make(map[ad.ID]Criteria),
		serial:   make(map[ad.ID]uint32),
	}
}

// Add inserts a term. If its Serial is zero, the next free serial for the
// advertiser is assigned. The stored term is returned.
func (db *DB) Add(t Term) Term {
	if t.Serial == 0 {
		db.serial[t.Advertiser]++
		t.Serial = db.serial[t.Advertiser]
	} else if t.Serial > db.serial[t.Advertiser] {
		db.serial[t.Advertiser] = t.Serial
	}
	db.terms[t.Advertiser] = append(db.terms[t.Advertiser], t)
	db.version++
	return t
}

// SetCriteria installs source selection criteria for an AD.
func (db *DB) SetCriteria(id ad.ID, c Criteria) {
	db.criteria[id] = c
	db.version++
}

// Version counts the mutations applied to this database: every Add, SetTerms
// and SetCriteria moves it. A compiled view (synthesis.Snapshot) records it
// to detect that the database moved on; a Clone counts its own mutations
// from zero.
func (db *DB) Version() uint64 { return db.version }

// CriteriaFor returns the selection criteria for id (open if none set).
func (db *DB) CriteriaFor(id ad.ID) Criteria { return db.criteria[id] }

// Terms returns the terms advertised by id. The returned slice is shared;
// callers must not modify it.
func (db *DB) Terms(id ad.ID) []Term { return db.terms[id] }

// NumTerms returns the total number of terms in the database.
func (db *DB) NumTerms() int {
	n := 0
	for _, ts := range db.terms {
		n += len(ts)
	}
	return n
}

// CriteriaADs returns the ADs with explicit selection criteria, ascending.
func (db *DB) CriteriaADs() []ad.ID {
	out := make([]ad.ID, 0, len(db.criteria))
	for id := range db.criteria {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Advertisers returns the ADs that advertise at least one term, ascending.
func (db *DB) Advertisers() []ad.ID {
	out := make([]ad.ID, 0, len(db.terms))
	for id := range db.terms {
		if len(db.terms[id]) > 0 {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Clone returns a deep copy of the database.
func (db *DB) Clone() *DB {
	c := NewDB()
	for id, ts := range db.terms {
		cp := make([]Term, len(ts))
		copy(cp, ts)
		c.terms[id] = cp
	}
	for id, cr := range db.criteria {
		c.criteria[id] = cr
	}
	for id, s := range db.serial {
		c.serial[id] = s
	}
	return c
}

// TermsDelta describes how an advertiser's term set changed across a
// SetTerms call, in the vocabulary scoped cache invalidation needs.
type TermsDelta struct {
	// AD is the advertiser whose terms changed.
	AD ad.ID
	// Removed lists the keys of terms that were dropped or whose content
	// changed: routes admitted by one of them may have lost their
	// permission. Sorted by serial.
	Removed []Key
	// Broadens reports whether any term was added or modified: request
	// pairs that previously had no legal route may have gained one.
	Broadens bool
}

// pairTerms forces the advertiser on the incoming terms and matches each
// zero-serial one against an unclaimed old term with identical content,
// reusing its serial — stable term identity across replacements — then
// returns the prepared terms plus the old-vs-new delta. Incoming terms
// still holding serial 0 after pairing are genuinely new; Add assigns them
// fresh serials.
func pairTerms(id ad.ID, old, terms []Term) ([]Term, TermsDelta) {
	prepared := make([]Term, len(terms))
	used := make(map[uint32]bool, len(terms))
	for _, t := range terms {
		if t.Serial != 0 {
			used[t.Serial] = true
		}
	}
	for i, t := range terms {
		t.Advertiser = id
		if t.Serial == 0 {
			for _, o := range old {
				if !used[o.Serial] && t.EqualContent(o) {
					t.Serial = o.Serial
					used[o.Serial] = true
					break
				}
			}
		}
		prepared[i] = t
	}

	delta := TermsDelta{AD: id}
	oldByKey := make(map[Key]Term, len(old))
	for _, o := range old {
		oldByKey[o.Key()] = o
	}
	for _, t := range prepared {
		o, survives := oldByKey[t.Key()]
		switch {
		case t.Serial == 0:
			// Freshly added term (serial assigned later by Add).
			delta.Broadens = true
		case survives && t.EqualContent(o):
			delete(oldByKey, t.Key())
		case survives:
			// Same key, different content: dependents must go, and the
			// new content may admit routes the old one refused.
			delta.Removed = append(delta.Removed, t.Key())
			delta.Broadens = true
			delete(oldByKey, t.Key())
		default:
			// Explicit serial with no predecessor.
			delta.Broadens = true
		}
	}
	for k := range oldByKey {
		delta.Removed = append(delta.Removed, k)
	}
	sort.Slice(delta.Removed, func(i, j int) bool {
		return delta.Removed[i].Serial < delta.Removed[j].Serial
	})
	return prepared, delta
}

// SetTerms replaces id's advertised terms in place (advertiser fields are
// forced to id) and returns the delta between the old and new sets. A new
// term whose content is identical to a replaced one keeps that term's
// serial, so term keys — which scoped cache invalidation indexes routes by
// — stay stable across no-op and partial replacements. The route server
// uses this for policy changes on a live database; callers must hold off
// concurrent readers while mutating (e.g. via routeserver.Server.Mutate or
// MutateScoped).
func (db *DB) SetTerms(id ad.ID, terms []Term) TermsDelta {
	prepared, delta := pairTerms(id, db.terms[id], terms)
	db.terms[id] = nil
	db.version++ // even when no term is left to Add
	for _, t := range prepared {
		db.Add(t)
	}
	return delta
}

// DiffTerms returns the delta SetTerms(id, terms) would produce, without
// mutating the database. Serving front ends use it to build the scoped
// change descriptor before applying the mutation under
// routeserver.Server.MutateScoped. It must not race with concurrent
// mutations of the database.
func (db *DB) DiffTerms(id ad.ID, terms []Term) TermsDelta {
	_, delta := pairTerms(id, db.terms[id], terms)
	return delta
}

// WithTerms returns a copy of the database in which id's terms are replaced
// by the given set (advertiser fields are forced to id). Criteria are
// preserved. Policy-impact analysis and runtime policy changes use this to
// build candidate databases without mutating the original.
func (db *DB) WithTerms(id ad.ID, terms []Term) *DB {
	out := NewDB()
	for _, adv := range db.Advertisers() {
		if adv == id {
			continue
		}
		for _, t := range db.terms[adv] {
			out.Add(t)
		}
	}
	for _, t := range terms {
		t.Advertiser = id
		out.Add(t)
	}
	for _, src := range db.CriteriaADs() {
		out.SetCriteria(src, db.criteria[src])
	}
	return out
}

// Transit summarizes what an AD's terms offer it as a transit, the view a
// hop-by-hop protocol re-advertises routes by: OK[q] reports whether some
// term offers QOS class q and Cost[q] is the cheapest such term's cost;
// Sources, UCI and Dests are the unions of the terms' source, user-class and
// destination sets. An AD with no terms offers nothing: every OK[q] is false.
type Transit struct {
	OK      []bool
	Cost    []uint32
	Sources ADSet
	UCI     ClassSet
	Dests   ADSet
}

// TransitOf summarizes id's terms over QOS classes 0..qosClasses-1.
func (db *DB) TransitOf(id ad.ID, qosClasses int) Transit {
	tr := Transit{OK: make([]bool, qosClasses), Cost: make([]uint32, qosClasses)}
	for _, t := range db.terms[id] {
		for q := range tr.OK {
			if t.QOS.Contains(uint8(q)) && (!tr.OK[q] || t.Cost < tr.Cost[q]) {
				tr.OK[q], tr.Cost[q] = true, t.Cost
			}
		}
		tr.Sources = tr.Sources.Union(t.Sources)
		tr.UCI |= t.UCI
		tr.Dests = tr.Dests.Union(t.Dests)
	}
	return tr
}

// cheapest returns transit's cheapest term (the first such, on a tie) that
// permits req entering from prev and exiting toward next, or nil. It walks
// the stored terms in place: a Term is too large to copy per candidate.
func (db *DB) cheapest(transit ad.ID, req Request, prev, next ad.ID) *Term {
	var best *Term
	ts := db.terms[transit]
	for i := range ts {
		if t := &ts[i]; (best == nil || t.Cost < best.Cost) && t.permits(req, prev, next) {
			best = t
		}
	}
	return best
}

// PermitsTransit reports whether any term of transit permits req entering
// from prev and exiting toward next, returning the cheapest matching term.
func (db *DB) PermitsTransit(transit ad.ID, req Request, prev, next ad.ID) (Term, bool) {
	if t := db.cheapest(transit, req, prev, next); t != nil {
		return *t, true
	}
	return Term{}, false
}

// TransitCost is PermitsTransit for callers that need only the verdict and
// the cheapest matching term's cost, as path enumeration and validation do
// (the route search asks a compiled synthesis.Snapshot instead).
func (db *DB) TransitCost(transit ad.ID, req Request, prev, next ad.ID) (uint32, bool) {
	if t := db.cheapest(transit, req, prev, next); t != nil {
		return t.Cost, true
	}
	return 0, false
}

// PathLegal reports whether path is legal for req: it must start at req.Src,
// end at req.Dst, be loop-free, satisfy the source's selection criteria, and
// every transit AD on it must advertise a term permitting the traversal.
// Endpoint ADs do not need transit terms for their own traffic (§2.1: stub
// ADs carry only traffic sourced or sunk locally).
func (db *DB) PathLegal(path ad.Path, req Request) bool {
	_, ok := db.legalTermCost(path, req)
	return ok
}

// legalTermCost is the one pass behind PathLegal and PathCost: whether path
// is legal for req and, if so, the sum over its transit ADs of the cheapest
// permitting term's cost.
func (db *DB) legalTermCost(path ad.Path, req Request) (uint32, bool) {
	if len(path) < 1 || path.Source() != req.Src || path.Dest() != req.Dst {
		return 0, false
	}
	if !path.LoopFree() {
		return 0, false
	}
	if !db.CriteriaFor(req.Src).Accepts(path) {
		return 0, false
	}
	var total uint32
	for i := 1; i < len(path)-1; i++ {
		c, ok := db.TransitCost(path[i], req, path[i-1], path[i+1])
		if !ok {
			return 0, false
		}
		total += c
	}
	return total, true
}

// PathCost returns the policy cost of a legal path: the sum of link costs in
// g plus the cost of the cheapest permitting term at each transit AD. The
// second return is false if the path is not legal or not connected in g.
func (db *DB) PathCost(g *ad.Graph, path ad.Path, req Request) (uint32, bool) {
	linkCost, ok := path.Cost(g)
	if !ok {
		return 0, false
	}
	termCost, ok := db.legalTermCost(path, req)
	if !ok {
		return 0, false
	}
	return linkCost + termCost, true
}

// Package flood implements the link-state flooding substrate shared by the
// two link-state architectures (LS hop-by-hop, paper §5.3, and ORWG source
// routing, §5.4): a sequence-numbered link-state database and a reliable-ish
// flooding discipline (duplicate suppression by sequence number, re-flood of
// strictly newer LSAs). The flooders of one system share a Table of decoded
// LSAs, so the system decodes each (origin, seq) once however many ADs
// install it, and every AD in one LSDB state searches one View.
package flood

import (
	"slices"

	"repro/internal/ad"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/synthesis"
	"repro/internal/wire"
)

// DB is a link-state database: the newest LSA per origin AD, indexed by
// the origin's position among its system's ADs.
type DB struct {
	sys  *Table
	lsas []*wire.LSA // nil where no LSA from the origin is installed
	n    int         // origins installed
	// Installs counts accepted (strictly newer) LSAs; Duplicates counts
	// rejected ones.
	Installs, Duplicates int
}

// newDB returns an empty LSDB for an AD of sys's system.
func newDB(sys *Table) *DB {
	return &DB{sys: sys, lsas: make([]*wire.LSA, len(sys.ids))}
}

// Install stores l if it is strictly newer than the current LSA from the
// same origin, reporting whether it was accepted. An LSA from an AD outside
// the system is never accepted.
func (db *DB) Install(l *wire.LSA) bool {
	p := ad.Position(db.sys.ids, l.Origin)
	if p < 0 || db.stale(p, l.Seq) {
		db.Duplicates++
		return false
	}
	if db.lsas[p] == nil {
		db.n++
	}
	db.lsas[p] = l
	db.Installs++
	return true
}

// stale reports whether an LSA with sequence number seq from the origin at
// position p is no newer than the one installed: what Install would count
// as a duplicate.
func (db *DB) stale(p int, seq uint32) bool {
	cur := db.lsas[p]
	return cur != nil && cur.Seq >= seq
}

// Get returns the newest LSA from origin, if any.
func (db *DB) Get(origin ad.ID) (*wire.LSA, bool) {
	if p := ad.Position(db.sys.ids, origin); p >= 0 && db.lsas[p] != nil {
		return db.lsas[p], true
	}
	return nil, false
}

// Len returns the number of distinct origins in the database.
func (db *DB) Len() int { return db.n }

// WireBytes returns the total marshalled size of the database, the LSDB
// memory metric used by experiment E8.
func (db *DB) WireBytes() int {
	n := 0
	for _, l := range db.lsas {
		if l != nil {
			n += len(wire.Marshal(l))
		}
	}
	return n
}

// Graph reconstructs the AD-level topology currently described by the
// database. A link exists when both endpoints advertise the adjacency as
// up; its cost is the maximum of the two advertised costs (conservative
// when they briefly disagree during convergence). ADs and links go in in
// ascending order, so every insertion lands at the end of its list.
func (db *DB) Graph() *ad.Graph {
	g := ad.NewGraph()
	// AD class/level are not carried in LSAs (routing does not need
	// them); transit permission comes from policy terms.
	for _, la := range db.lsas {
		if la != nil {
			// Errors are impossible: origins are distinct and in the
			// system.
			_ = g.AddADWithID(la.Origin, la.Origin.String(), ad.Transit, ad.Campus)
		}
	}
	for _, la := range db.lsas {
		if la == nil {
			continue
		}
		a := la.Origin
		for _, al := range la.Links {
			if !al.Up || al.Neighbor <= a {
				continue // handle each pair once, from the lower ID
			}
			b := al.Neighbor
			lb, ok := db.Get(b)
			if !ok {
				continue
			}
			var back *wire.LSALink
			for i := range lb.Links {
				if lb.Links[i].Neighbor == a {
					back = &lb.Links[i]
					break
				}
			}
			if back == nil || !back.Up {
				continue
			}
			_ = g.AddLink(ad.Link{A: a, B: b, Cost: max(al.Cost, back.Cost)})
		}
	}
	return g
}

// PolicyDB reconstructs the policy database flooded in LSAs.
func (db *DB) PolicyDB() *policy.DB {
	p := policy.NewDB()
	for _, l := range db.lsas {
		if l != nil {
			for _, t := range l.Terms {
				p.Add(t)
			}
		}
	}
	return p
}

// View is one LSDB state as a route server searches it: the topology and
// the policy terms its LSAs describe, compiled for search. It holds no
// source's selection criteria: those are private to each source and never
// flooded (see Own). A view is never written to once built, so every AD
// whose database is in that state can search the one value.
type View struct {
	Graph  *ad.Graph
	Policy *policy.DB
	Snap   *synthesis.Snapshot
	// lsas is the state it was built from, by origin position.
	lsas []*wire.LSA
}

// View returns the view of the database as it is now: the system's last
// view when that was built from exactly the LSAs the database holds, else a
// new one, which becomes the system's last. Once a system's floods have
// converged, its ADs hold the same LSAs (the table hands every one of them
// the same decoded value), so they share one view where each used to build
// its own.
func (db *DB) View() *View {
	if v := db.sys.view; v != nil && slices.Equal(v.lsas, db.lsas) {
		return v
	}
	g, pdb := db.Graph(), db.PolicyDB()
	v := &View{Graph: g, Policy: pdb, Snap: synthesis.Compile(g, pdb), lsas: slices.Clone(db.lsas)}
	db.sys.view = v
	return v
}

// Own returns what self searches its own requests on, given its selection
// criteria c: the view's snapshot when c constrains no search (no avoid set
// and no hop budget), else the view's graph and policy compiled with c as
// self's criteria. Either answers exactly as a view compiled with self's
// criteria would; a search for another source's request reads that
// source's criteria, which self does not know, so the view's own snapshot
// answers those.
func (v *View) Own(self ad.ID, c policy.Criteria) *synthesis.Snapshot {
	if c.Avoid.Empty() && c.MaxHops == 0 {
		return v.Snap
	}
	pdb := v.Policy.Clone()
	pdb.SetCriteria(self, c)
	return synthesis.Compile(v.Graph, pdb)
}

// Table holds the LSAs a system's flooders decoded or originated: the
// newest one per origin. An LSA is never written to once built, and an
// (origin, seq) names one LSA within a system, since only its origin's
// flooder numbers them; so every AD that installs it can hold the one
// value, and the system pays no decode for an LSA its origin built and one
// decode and one copy per (origin, seq) it did not, instead of one per AD.
// The table also keeps the last View built from it. A table belongs to one
// system: the system's constructor makes it and hands it to every flooder
// it builds, and it outlives no network.
type Table struct {
	ids  []ad.ID     // the system's ADs, ascending
	lsas []*wire.LSA // by origin position
	view *View
}

// NewTable returns an empty table for a system of the ADs ids, ascending.
func NewTable(ids []ad.ID) *Table {
	return &Table{ids: ids, lsas: make([]*wire.LSA, len(ids))}
}

// decode returns the LSA frame carries, whose origin (at position p) and
// seq its header gave: the stored value when the system built or decoded it
// before, else the frame decoded, and stored unless the table holds a newer
// one from the origin. It returns nil for a frame that does not decode.
func (t *Table) decode(p int, seq uint32, frame []byte) *wire.LSA {
	cur := t.lsas[p]
	if cur != nil && cur.Seq == seq {
		return cur
	}
	lsa := new(wire.LSA)
	if wire.UnmarshalInto(frame, lsa) != nil {
		return nil
	}
	if cur == nil || cur.Seq < seq {
		t.lsas[p] = lsa
	}
	return lsa
}

// Flooder runs the flooding discipline for one AD. Protocol nodes embed it
// and delegate LSA handling to it.
type Flooder struct {
	// Self is the AD this flooder serves.
	Self ad.ID
	// DB is the local link-state database.
	DB *DB
	// OnChange, if non-nil, is invoked after each accepted LSA.
	OnChange func(nw *sim.Network)
	// Scope, if non-nil, restricts which neighbors receive flooded
	// copies — the §6 "database distribution strategies" knob. Returning
	// false suppresses the copy toward that neighbor. nil means flood to
	// every up neighbor (classic flooding).
	Scope func(neighbor ad.ID) bool

	seq  uint32
	lsas *Table
}

// floodScoped sends payload to every up neighbor passing the scope filter,
// except skip.
func (f *Flooder) floodScoped(nw *sim.Network, payload []byte, skip ...ad.ID) int {
	if f.Scope == nil {
		return nw.Flood(f.Self, payload, skip...)
	}
	sent := 0
	for _, n := range nw.Graph.Neighbors(f.Self) {
		if nw.LinkIsUp(f.Self, n) && f.Scope(n) && !slices.Contains(skip, n) && nw.Send(f.Self, n, payload) {
			sent++
		}
	}
	return sent
}

// NewFlooder returns a flooder for self with an empty database, decoding
// through lsas, the table of self's system.
func NewFlooder(self ad.ID, lsas *Table) *Flooder {
	return &Flooder{Self: self, DB: newDB(lsas), lsas: lsas}
}

// Originate builds, installs, and floods this AD's own LSA describing its
// current adjacencies and policy terms.
func (f *Flooder) Originate(nw *sim.Network, terms []policy.Term) {
	f.seq++
	lsa := &wire.LSA{Origin: f.Self, Seq: f.seq}
	for _, l := range nw.Graph.Incident(f.Self) {
		other, _ := l.Other(f.Self)
		lsa.Links = append(lsa.Links, wire.LSALink{
			Neighbor: other,
			Cost:     l.Cost,
			Up:       nw.LinkIsUp(f.Self, other),
		})
	}
	lsa.Terms = terms
	// Only this flooder numbers self's LSAs, so the new one is the newest
	// the system has from self.
	if p := ad.Position(f.lsas.ids, f.Self); p >= 0 {
		f.lsas.lsas[p] = lsa
	}
	f.DB.Install(lsa)
	f.floodScoped(nw, nw.Encode(lsa))
	if f.OnChange != nil {
		f.OnChange(nw)
	}
}

// Receive handles payload if it is an LSA frame, reporting whether it was.
// A copy no newer than the installed LSA from its origin is counted as a
// duplicate without being decoded: on a node of degree d only one copy in d
// is new. A new copy is taken from the system's table, so an (origin, seq)
// is decoded at most once in the system, and none its origin built is; it
// is re-flooded as the bytes it arrived in (Send copies them). A copy from
// an origin outside the system is counted as a duplicate.
func (f *Flooder) Receive(nw *sim.Network, from ad.ID, payload []byte) bool {
	origin, seq, ok := wire.PeekLSA(payload)
	if !ok {
		return false
	}
	p := ad.Position(f.lsas.ids, origin)
	if p < 0 || f.DB.stale(p, seq) {
		f.DB.Duplicates++
		return true
	}
	if lsa := f.lsas.decode(p, seq, payload); lsa != nil {
		f.install(nw, from, lsa, payload)
	}
	return true
}

// install processes lsa, decoded from frame: install if newer, then
// re-flood frame to all up neighbors except the sender.
func (f *Flooder) install(nw *sim.Network, from ad.ID, lsa *wire.LSA, frame []byte) {
	if !f.DB.Install(lsa) {
		return
	}
	f.floodScoped(nw, frame, from)
	if f.OnChange != nil {
		f.OnChange(nw)
	}
}

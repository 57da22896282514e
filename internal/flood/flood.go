// Package flood implements the link-state flooding substrate shared by the
// two link-state architectures (LS hop-by-hop, paper §5.3, and ORWG source
// routing, §5.4): a sequence-numbered link-state database and a reliable-ish
// flooding discipline (duplicate suppression by sequence number, re-flood of
// strictly newer LSAs). The flooders of one system share a Table of decoded
// LSAs, so the system decodes each (origin, seq) once however many ADs
// install it.
package flood

import (
	"sort"

	"repro/internal/ad"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/synthesis"
	"repro/internal/wire"
)

// DB is a link-state database: the newest LSA per origin AD.
type DB struct {
	lsas map[ad.ID]*wire.LSA
	// Installs counts accepted (strictly newer) LSAs; Duplicates counts
	// rejected ones.
	Installs, Duplicates int
}

// NewDB returns an empty LSDB.
func NewDB() *DB {
	return &DB{lsas: make(map[ad.ID]*wire.LSA)}
}

// Install stores l if it is strictly newer than the current LSA from the
// same origin, reporting whether it was accepted.
func (db *DB) Install(l *wire.LSA) bool {
	if db.stale(l.Origin, l.Seq) {
		db.Duplicates++
		return false
	}
	db.lsas[l.Origin] = l
	db.Installs++
	return true
}

// stale reports whether an LSA (origin, seq) is no newer than the one
// installed: what Install would count as a duplicate.
func (db *DB) stale(origin ad.ID, seq uint32) bool {
	cur, ok := db.lsas[origin]
	return ok && cur.Seq >= seq
}

// Get returns the newest LSA from origin, if any.
func (db *DB) Get(origin ad.ID) (*wire.LSA, bool) {
	l, ok := db.lsas[origin]
	return l, ok
}

// Origins returns the ADs with an installed LSA, ascending.
func (db *DB) Origins() []ad.ID {
	out := make([]ad.ID, 0, len(db.lsas))
	for id := range db.lsas {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Len returns the number of distinct origins in the database.
func (db *DB) Len() int { return len(db.lsas) }

// WireBytes returns the total marshalled size of the database, the LSDB
// memory metric used by experiment E8.
func (db *DB) WireBytes() int {
	n := 0
	for _, l := range db.lsas {
		n += len(wire.Marshal(l))
	}
	return n
}

// Graph reconstructs the AD-level topology currently described by the
// database. A link exists when both endpoints advertise the adjacency as
// up; its cost is the maximum of the two advertised costs (conservative
// when they briefly disagree during convergence).
func (db *DB) Graph() *ad.Graph {
	g := ad.NewGraph()
	// Create all origin nodes first. AD class/level are not carried in
	// LSAs (routing does not need them); transit permission comes from
	// policy terms.
	for id := range db.lsas {
		// Errors are impossible: ids are unique and non-zero origins
		// are enforced by Install callers.
		_ = g.AddADWithID(id, id.String(), ad.Transit, ad.Campus)
	}
	for a, la := range db.lsas {
		for _, al := range la.Links {
			if !al.Up || al.Neighbor <= a {
				continue // handle each pair once, from the lower ID
			}
			b := al.Neighbor
			lb, ok := db.lsas[b]
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
			cost := al.Cost
			if back.Cost > cost {
				cost = back.Cost
			}
			_ = g.AddLink(ad.Link{A: a, B: b, Cost: cost})
		}
	}
	return g
}

// PolicyDB reconstructs the policy database flooded in LSAs.
func (db *DB) PolicyDB() *policy.DB {
	p := policy.NewDB()
	for _, origin := range db.Origins() {
		for _, t := range db.lsas[origin].Terms {
			p.Add(t)
		}
	}
	return p
}

// View builds what self's route server searches: the topology and policy
// the database describes, with self's own route-selection criteria (they
// are private to each source and never flooded), compiled for search. A
// route server builds one per database change.
func (db *DB) View(self ad.ID, criteria policy.Criteria) (*ad.Graph, *policy.DB, *synthesis.Snapshot) {
	g, pdb := db.Graph(), db.PolicyDB()
	pdb.SetCriteria(self, criteria)
	return g, pdb, synthesis.Compile(g, pdb)
}

// Table holds the LSAs a system's flooders decoded: the newest one per
// origin. An LSA is never written to once decoded, and an (origin, seq)
// names one LSA within a system, since only its origin's flooder numbers
// them; so every AD that installs it can hold the one decoded value, and
// the system pays one decode and one copy per (origin, seq) instead of one
// per AD. A table belongs to one system: the system's constructor makes it
// and hands it to every flooder it builds.
type Table struct {
	lsas map[ad.ID]*wire.LSA
}

// NewTable returns an empty table.
func NewTable() *Table {
	return &Table{lsas: make(map[ad.ID]*wire.LSA)}
}

// decode returns the LSA frame carries, whose origin and seq its header
// gave: the stored value when an AD of the system decoded it before, else
// the frame decoded, and stored unless the table holds a newer one from the
// origin. It returns nil for a frame that does not decode.
func (t *Table) decode(origin ad.ID, seq uint32, frame []byte) *wire.LSA {
	cur := t.lsas[origin]
	if cur != nil && cur.Seq == seq {
		return cur
	}
	lsa := new(wire.LSA)
	if wire.UnmarshalInto(frame, lsa) != nil {
		return nil
	}
	if cur == nil || cur.Seq < seq {
		t.lsas[origin] = lsa
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
	for _, n := range nw.UpNeighbors(f.Self) {
		skipped := !f.Scope(n)
		for _, s := range skip {
			if n == s {
				skipped = true
			}
		}
		if skipped {
			continue
		}
		if nw.Send(f.Self, n, payload) {
			sent++
		}
	}
	return sent
}

// NewFlooder returns a flooder for self with an empty database, decoding
// through lsas, the table of self's system.
func NewFlooder(self ad.ID, lsas *Table) *Flooder {
	return &Flooder{Self: self, DB: NewDB(), lsas: lsas}
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
	f.DB.Install(lsa)
	f.floodScoped(nw, nw.Encode(lsa))
	if f.OnChange != nil {
		f.OnChange(nw)
	}
}

// Receive handles payload if it is an LSA frame, reporting whether it was.
// A copy no newer than the installed LSA from its origin is counted as a
// duplicate without being decoded: on a node of degree d only one copy in d
// is new. A new copy is decoded through the system's table, so only the
// first AD of the system to install an (origin, seq) decodes it, and it is
// re-flooded as the bytes it arrived in (Send copies them).
func (f *Flooder) Receive(nw *sim.Network, from ad.ID, payload []byte) bool {
	origin, seq, ok := wire.PeekLSA(payload)
	if !ok {
		return false
	}
	if f.DB.stale(origin, seq) {
		f.DB.Duplicates++
		return true
	}
	if lsa := f.lsas.decode(origin, seq, payload); lsa != nil {
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

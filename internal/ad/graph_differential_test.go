package ad

import (
	"cmp"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

var graphSeed = flag.Int64("graphseed", -1, "replay one TestGraphDifferential seed (-1 = all)")

// graphModel is the map-backed graph the differential test holds Graph to:
// what the graph stored before it was laid out by position.
type graphModel struct {
	ads   map[ID]Info
	links map[[2]ID]Link
}

func newGraphModel() *graphModel {
	return &graphModel{ads: make(map[ID]Info), links: make(map[[2]ID]Link)}
}

func (m *graphModel) clone() *graphModel {
	c := newGraphModel()
	for id, info := range m.ads {
		c.ads[id] = info
	}
	for k, l := range m.links {
		c.links[k] = l
	}
	return c
}

// ids returns the model's IDs, ascending.
func (m *graphModel) ids() []ID {
	out := make([]ID, 0, len(m.ads))
	for id := range m.ads {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// pairs returns the model's links by endpoint pair, ascending.
func (m *graphModel) pairs() [][2]ID {
	out := make([][2]ID, 0, len(m.links))
	for k := range m.links {
		out = append(out, k)
	}
	slices.SortFunc(out, cmpPair)
	return out
}

func pairOf(a, b ID) [2]ID {
	if a > b {
		a, b = b, a
	}
	return [2]ID{a, b}
}

// nextID is the ID AddAD must hand out: one above the highest in use, or
// the lowest free one once that would pass MaxUint32.
func (m *graphModel) nextID() ID {
	if len(m.ads) == 0 {
		return 1
	}
	if ids := m.ids(); ids[len(ids)-1] < math.MaxUint32 {
		return ids[len(ids)-1] + 1
	}
	for id := ID(1); ; id++ {
		if _, ok := m.ads[id]; !ok {
			return id
		}
	}
}

func (m *graphModel) neighbors(id ID) []ID {
	var out []ID
	for k := range m.links {
		if k[0] == id {
			out = append(out, k[1])
		} else if k[1] == id {
			out = append(out, k[0])
		}
	}
	slices.Sort(out)
	return out
}

func (m *graphModel) connected() bool {
	if len(m.ads) == 0 {
		return true
	}
	var start ID
	for id := range m.ads {
		start = id
		break
	}
	seen := map[ID]bool{start: true}
	for queue := []ID{start}; len(queue) > 0; queue = queue[1:] {
		for _, nb := range m.neighbors(queue[0]) {
			if !seen[nb] {
				seen[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	return len(seen) == len(m.ads)
}

// diffGraph returns the first accessor on which g and m disagree, or "".
func diffGraph(g *Graph, m *graphModel) string {
	ids := m.ids()
	if g.NumADs() != len(ids) || g.NumLinks() != len(m.links) {
		return fmt.Sprintf("NumADs/NumLinks = %d/%d, model %d/%d", g.NumADs(), g.NumLinks(), len(ids), len(m.links))
	}
	if got := g.IDs(); !slices.Equal(got, ids) {
		return fmt.Sprintf("IDs = %v, model %v", got, ids)
	}
	var infos []Info
	var stubs []ID
	for _, id := range ids {
		infos = append(infos, m.ads[id])
		if c := m.ads[id].Class; c == Stub || c == MultihomedStub {
			stubs = append(stubs, id)
		}
	}
	if got := g.ADs(); !slices.Equal(got, infos) {
		return fmt.Sprintf("ADs = %v, model %v", got, infos)
	}
	if got := g.Stubs(); !slices.Equal(got, stubs) {
		return fmt.Sprintf("Stubs = %v, model %v", got, stubs)
	}
	var links []Link
	for _, k := range m.pairs() {
		links = append(links, m.links[k])
	}
	if got := g.Links(); !slices.Equal(got, links) {
		return fmt.Sprintf("Links = %v, model %v", got, links)
	}
	for p, id := range ids {
		if got := g.position(id); got != p {
			return fmt.Sprintf("position(%v) = %d, want %d", id, got, p)
		}
		if info, ok := g.AD(id); !ok || info != m.ads[id] {
			return fmt.Sprintf("AD(%v) = %+v,%v, model %+v", id, info, ok, m.ads[id])
		}
		nbs := m.neighbors(id)
		if got := g.Neighbors(id); !slices.Equal(got, nbs) {
			return fmt.Sprintf("Neighbors(%v) = %v, model %v", id, got, nbs)
		}
		inc := g.Incident(id)
		if len(inc) != len(nbs) || g.Degree(id) != len(nbs) {
			return fmt.Sprintf("Incident(%v) has %d links, Degree %d, model %d", id, len(inc), g.Degree(id), len(nbs))
		}
		for i, nb := range nbs {
			want := m.links[pairOf(id, nb)]
			if inc[i] != want {
				return fmt.Sprintf("Incident(%v)[%d] = %v, model %v", id, i, inc[i], want)
			}
			if l, ok := g.LinkBetween(nb, id); !ok || l != want || !g.HasLink(id, nb) {
				return fmt.Sprintf("LinkBetween(%v, %v) = %v,%v, model %v", nb, id, l, ok, want)
			}
		}
	}
	// Absent ADs and absent links are absent.
	for _, id := range []ID{Invalid, 2, 3, 1000, math.MaxUint32 - 1, math.MaxUint32} {
		if _, in := m.ads[id]; in {
			continue
		}
		if _, ok := g.AD(id); ok || g.position(id) != -1 || g.Neighbors(id) != nil || g.Degree(id) != 0 {
			return fmt.Sprintf("absent %v is visible", id)
		}
	}
	for i := 0; i+1 < len(ids); i++ {
		a, b := ids[i], ids[i+1]
		if _, in := m.links[pairOf(a, b)]; !in && (g.HasLink(a, b) || g.HasLink(b, a)) {
			return fmt.Sprintf("absent link %v-%v is visible", a, b)
		}
	}
	if g.Connected() != m.connected() {
		return fmt.Sprintf("Connected = %v, model %v", g.Connected(), m.connected())
	}
	return ""
}

func cmpPair(a, b [2]ID) int {
	if c := cmp.Compare(a[0], b[0]); c != 0 {
		return c
	}
	return cmp.Compare(a[1], b[1])
}

// frozen is a graph the run left behind at a Clone, with the model it must
// still match: mutating the other side must never show through.
type frozen struct {
	g *Graph
	m *graphModel
}

// TestGraphDifferential runs random operation sequences on Graph and on the
// map-backed model in lockstep — AddAD, AddADWithID (out of order, sparse,
// next to MaxUint32), AddLink and RemoveLink (both orientations, duplicates
// and unknown endpoints included) and Clone — and after every operation
// holds every accessor to the model, and every graph left behind at a Clone
// to its own model. Replay one sequence with -run TestGraphDifferential
// -graphseed N.
func TestGraphDifferential(t *testing.T) {
	seeds := make([]int64, 200)
	for i := range seeds {
		seeds[i] = int64(i)*7919 + 1
	}
	if *graphSeed >= 0 {
		seeds = []int64{*graphSeed}
	}
	for _, seed := range seeds {
		if msg := runGraphOps(seed); msg != "" {
			t.Fatalf("seed %d: %s (replay with -run TestGraphDifferential -graphseed %d)", seed, msg, seed)
		}
	}
}

func runGraphOps(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	g, m := NewGraph(), newGraphModel()
	var left []frozen
	pick := func() ID {
		if len(m.ads) == 0 || rng.Intn(8) == 0 {
			return ID(rng.Intn(50))
		}
		ids := m.ids()
		return ids[rng.Intn(len(ids))]
	}
	for step := 0; step < 120; step++ {
		var op string
		before := g.Version()
		moved := true
		switch r := rng.Intn(20); {
		case r < 4:
			op = "AddAD"
			want := m.nextID()
			info := Info{Name: fmt.Sprint("n", step), Class: Class(rng.Intn(4)), Level: Level(rng.Intn(4))}
			got := g.AddAD(info.Name, info.Class, info.Level)
			if got != want {
				return fmt.Sprintf("step %d: AddAD = %v, model %v", step, got, want)
			}
			info.ID = got
			m.ads[got] = info
		case r < 8:
			var id ID
			switch rng.Intn(4) {
			case 0:
				id = math.MaxUint32 - ID(rng.Intn(3))
			case 1:
				id = ID(rng.Intn(4_000_000_000))
			default:
				id = ID(rng.Intn(40))
			}
			op = fmt.Sprintf("AddADWithID(%v)", id)
			info := Info{ID: id, Name: fmt.Sprint("w", step), Class: Class(rng.Intn(4)), Level: Level(rng.Intn(4))}
			_, dup := m.ads[id]
			err := g.AddADWithID(id, info.Name, info.Class, info.Level)
			if (err == nil) != (id != Invalid && !dup) {
				return fmt.Sprintf("step %d: %s error = %v, model in use %v", step, op, err, dup)
			}
			if moved = err == nil; moved {
				m.ads[id] = info
			}
		case r < 15:
			l := Link{A: pick(), B: pick(), Class: LinkClass(rng.Intn(3)), DelayMicros: int64(rng.Intn(100)), Cost: uint32(rng.Intn(3))}
			op = fmt.Sprintf("AddLink(%v-%v)", l.A, l.B)
			_, okA := m.ads[l.A]
			_, okB := m.ads[l.B]
			_, dup := m.links[pairOf(l.A, l.B)]
			legal := okA && okB && l.A != l.B && !dup
			err := g.AddLink(l)
			if (err == nil) != legal {
				return fmt.Sprintf("step %d: %s error = %v, model legal %v", step, op, err, legal)
			}
			if moved = legal; legal {
				l = l.Canonical()
				if l.Cost == 0 {
					l.Cost = 1
				}
				m.links[pairOf(l.A, l.B)] = l
			}
		case r < 19:
			a, b := pick(), pick()
			if ks := m.pairs(); len(ks) > 0 && rng.Intn(3) > 0 {
				k := ks[rng.Intn(len(ks))]
				a, b = k[1], k[0]
			}
			op = fmt.Sprintf("RemoveLink(%v-%v)", a, b)
			_, in := m.links[pairOf(a, b)]
			if got := g.RemoveLink(a, b); got != in {
				return fmt.Sprintf("step %d: %s = %v, model %v", step, op, got, in)
			}
			moved = in
			delete(m.links, pairOf(a, b))
		default:
			op = "Clone"
			c := g.Clone()
			if c.Version() != 0 {
				return fmt.Sprintf("step %d: clone starts at version %d", step, c.Version())
			}
			if rng.Intn(2) == 0 {
				left = append(left, frozen{g, m.clone()})
				g = c
			} else {
				left = append(left, frozen{c, m.clone()})
			}
			moved = false
			before = g.Version()
		}
		if (g.Version() != before) != moved {
			return fmt.Sprintf("step %d: %s moved the version %v, want %v", step, op, g.Version() != before, moved)
		}
		if msg := diffGraph(g, m); msg != "" {
			return fmt.Sprintf("step %d, after %s: %s", step, op, msg)
		}
		for i, f := range left {
			if msg := diffGraph(f.g, f.m); msg != "" {
				return fmt.Sprintf("step %d, after %s: graph left at clone %d changed: %s", step, op, i, msg)
			}
		}
	}
	return ""
}

// TestAddADAfterMaxID: once MaxUint32 is taken, "one above the highest ID"
// has nowhere to go, and AddAD hands out the lowest free ID instead of
// wrapping to Invalid and then to an ID in use.
func TestAddADAfterMaxID(t *testing.T) {
	g := NewGraph()
	one := g.AddAD("one", Transit, Backbone)
	if err := g.AddADWithID(math.MaxUint32, "top", Stub, Campus); err != nil {
		t.Fatal(err)
	}
	seen := map[ID]bool{one: true, math.MaxUint32: true}
	for i := 0; i < 3; i++ {
		id := g.AddAD(fmt.Sprint("x", i), Stub, Campus)
		if id == Invalid || seen[id] {
			t.Fatalf("AddAD #%d after MaxUint32 = %v, an invalid or used ID", i, id)
		}
		seen[id] = true
	}
	if info, _ := g.AD(one); info.Name != "one" {
		t.Errorf("AD(%v) = %+v, overwritten", one, info)
	}
	if g.NumADs() != 5 {
		t.Errorf("NumADs = %d, want 5", g.NumADs())
	}
}

// TestSparseIDsCostByCount: the graph is laid out by position, so a graph
// holding AD 1 and AD 4,000,000,000 costs what any two-AD graph costs.
func TestSparseIDsCostByCount(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g := NewGraph()
	if err := g.AddADWithID(4_000_000_000, "far", Transit, Backbone); err != nil {
		t.Fatal(err)
	}
	if err := g.AddADWithID(1, "near", Stub, Campus); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(Link{A: 1, B: 4_000_000_000}); err != nil {
		t.Fatal(err)
	}
	_ = g.Clone()
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Errorf("a two-AD graph with sparse IDs allocated %d bytes, want under 1 MB", n)
	}
	if g.position(4_000_000_000) != 1 || g.position(1) != 0 {
		t.Errorf("positions %d, %d, want 1, 0", g.position(1), g.position(4_000_000_000))
	}
}

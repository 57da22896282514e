package routeserver

import (
	"flag"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ad"
	"repro/internal/policy"
	"repro/internal/synthesis"
)

// TestHashPinned holds hash to the values the looped FNV-1a it replaced
// produced: every byte of the key reaches the index's home slot.
func TestHashPinned(t *testing.T) {
	for _, c := range []struct {
		k    Key
		want uint32
	}{
		{Key{}, 0xa413d797},
		{Key{Src: 1, Dst: 2}, 0x260d9fe2},
		{Key{Src: 2, Dst: 1}, 0x3d205df2},
		{Key{Src: 111, Dst: 7, QOS: 1, UCI: 2, Hour: 12}, 0x588c5ea},
		{Key{Src: 0x01020304, Dst: 0xfffefdfc, QOS: 255, UCI: 128, Hour: 23}, 0xe59d736b},
		{Key{Src: 65536, Dst: 256, Hour: 1}, 0x7e210d0a},
		{Key{Src: 42, Dst: 42, QOS: 3}, 0x3b582e82},
	} {
		if got := hash(c.k); got != c.want {
			t.Errorf("hash(%+v) = %#x, want %#x", c.k, got, c.want)
		}
	}
}

var tableSeed = flag.Int64("tableseed", 0, "seed for TestTableDifferential (0 = from the clock)")

// model is the reference the table is run against: a plain map for the
// contents and a slice for the CLOCK ring, written for obviousness.
type model struct {
	capacity int
	m        map[Key]*modelEntry
	ring     []*modelEntry // nil = free slot
	free     []int
	hand     int
}

type modelEntry struct {
	key  Key
	res  Result
	fp   synthesis.Footprint
	slot int
	ref  bool
}

func (m *model) get(k Key) *modelEntry {
	e := m.m[k]
	if e != nil {
		e.ref = true
	}
	return e
}

func (m *model) del(k Key) {
	e := m.m[k]
	delete(m.m, k)
	m.ring[e.slot] = nil
	m.free = append(m.free, e.slot)
}

func (m *model) put(k Key, res Result, fp synthesis.Footprint) (evicted bool) {
	if m.m[k] != nil {
		m.del(k)
	} else if m.capacity > 0 && len(m.m) == m.capacity {
		for {
			if m.hand >= len(m.ring) {
				m.hand = 0
			}
			e := m.ring[m.hand]
			m.hand++
			if e == nil {
				continue
			}
			if !e.ref {
				m.del(e.key)
				break
			}
			e.ref = false
		}
		evicted = true
	}
	e := &modelEntry{key: k, res: res, fp: fp}
	if n := len(m.free); n > 0 {
		e.slot, m.free = m.free[n-1], m.free[:n-1]
	} else {
		e.slot = len(m.ring)
		m.ring = append(m.ring, nil)
	}
	m.ring[e.slot] = e
	m.m[k] = e
	return evicted
}

// victims is the brute-force scan of resident footprints the reverse index
// must agree with.
func (m *model) victims(c synthesis.Change) []Key {
	var out []Key
	for k, e := range m.m {
		hit := !e.res.Found && c.AffectsNegative()
		if c.Kind == synthesis.ChangeLinkDown && slices.Contains(e.fp.Links, ad.LinkKey(c.A, c.B)) {
			hit = true
		}
		if c.Kind == synthesis.ChangePolicy {
			for _, tk := range c.RemovedTerms {
				hit = hit || slices.Contains(e.fp.Terms, tk)
			}
		}
		if hit {
			out = append(out, k)
		}
	}
	sortKeys(out)
	return out
}

func sortKeys(ks []Key) { slices.SortFunc(ks, compareKeys) }

// compareKeys orders keys on every field.
func compareKeys(a, b Key) int {
	for _, d := range []int{
		int(a.Src) - int(b.Src), int(a.Dst) - int(b.Dst),
		int(a.QOS) - int(b.QOS), int(a.UCI) - int(b.UCI), int(a.Hour) - int(b.Hour),
	} {
		if d != 0 {
			return d
		}
	}
	return 0
}

func keysOf(es []*entry) []Key {
	out := make([]Key, len(es))
	for i, e := range es {
		out[i] = e.key
	}
	sortKeys(out)
	return out
}

// checkTable verifies the table's own invariants: the index holds exactly
// the ring's entries and keeps its load bound; each bucket holds exactly
// its live edges — every edge of every resident entry (a link of its path,
// a charged term, or negs for a negative answer) is recorded at a distinct
// position whose bucket names the entry there, and the buckets hold nothing
// else; no bucket's capacity exceeds four times its length or minBucket; and
// no key is both resident and pending. Every caller's server is quiescent,
// so pending must be empty altogether. It returns Σ len and Σ cap over the
// buckets and the bucket count. Caller holds mu or owns tab.
func checkTable(t *testing.T, tab *table) (edges, capacity, buckets int) {
	t.Helper()
	ix := tab.idx.Load()
	var indexed, used int
	for i := range ix.slots {
		switch e := ix.slots[i].Load(); {
		case e == nil:
		case e == tombstone:
			used++
		default:
			used++
			indexed++
			if e.isDead() || tab.ring[e.slot] != e {
				t.Fatalf("index holds %+v, which the ring does not", e.key)
			}
		}
	}
	if indexed != tab.live || used != tab.used || used*4 > len(ix.slots)*3 {
		t.Fatalf("index: %d entries (live %d), %d used (counted %d) of %d slots", indexed, tab.live, used, tab.used, len(ix.slots))
	}
	type at struct {
		b   *bucket
		pos uint32
	}
	claimed := map[at]bool{}
	claim := func(e *entry, rec int, b *bucket, pos uint32, what any) {
		if b == nil || int(pos) >= len(b.edges) || b.edges[pos] != edgeOf(e.slot, rec) || claimed[at{b, pos}] {
			t.Fatalf("%+v (slot %d) records position %d in the bucket of %v, which does not name its record %d there", e.key, e.slot, pos, what, rec)
		}
		claimed[at{b, pos}] = true
	}
	resident := 0
	tab.each(func(e *entry) {
		resident++
		if tab.pending[e.key] != nil {
			t.Fatalf("%+v is both resident and pending", e.key)
		}
		if _, got := ix.locate(e.key, hash(e.key)); got != e {
			t.Fatalf("resident %+v is not reachable through the index", e.key)
		}
		if !e.found {
			claim(e, 0, &tab.negs, e.aux[0], "negs")
			return
		}
		for j, pos := range e.linkPos() {
			l := ad.LinkKey(e.path[j], e.path[j+1])
			claim(e, j, tab.byLink[l], pos, l)
		}
		tp := e.termPos()
		for j, serial := range e.charged() {
			if serial != 0 {
				k := policy.Key{Advertiser: e.path[j+1], Serial: serial}
				claim(e, j, tab.byTerm[k], tp[j], k)
			}
		}
	})
	if len(tab.pending) != 0 {
		t.Fatalf("%d claims pending on a quiescent table", len(tab.pending))
	}
	if resident != tab.live || len(tab.free)+resident != len(tab.ring) {
		t.Fatalf("ring: %d resident (live %d), %d free of %d slots", resident, tab.live, len(tab.free), len(tab.ring))
	}
	bucket := func(b *bucket, what any) {
		buckets++
		edges += len(b.edges)
		capacity += cap(b.edges)
		if cap(b.edges) > max(4*len(b.edges), minBucket) {
			t.Fatalf("bucket of %v: capacity %d for %d edges", what, cap(b.edges), len(b.edges))
		}
	}
	bucket(&tab.negs, "negs")
	for l, b := range tab.byLink {
		bucket(b, l)
	}
	for k, b := range tab.byTerm {
		bucket(b, k)
	}
	if edges != len(claimed) {
		t.Fatalf("the buckets hold %d edges, %d of them live", edges, len(claimed))
	}
	return edges, capacity, buckets
}

// putEntry is table.put of k's answer charged with fp, which must be the
// footprint of res's path.
func putEntry(t *testing.T, tab *table, k Key, res Result, fp synthesis.Footprint) (evicted bool) {
	t.Helper()
	e := newEntry(k, res)
	if e == nil || !e.charge(fp) {
		t.Fatalf("%+v: footprint %+v is not the path's", res, fp)
	}
	return tab.put(e, hash(k))
}

// TestTableDifferential drives one table and the model in lockstep with
// seeded random puts (new keys, replacements, capacity evictions), hits,
// peeks, deletes, scoped evictions and purges, comparing every answer and,
// every so often, the whole contents, the table's invariants and the
// reverse index against a brute-force scan. Replay a failure with
// -tableseed.
func TestTableDifferential(t *testing.T) {
	seed := *tableSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	for _, capacity := range []int{0, 5, 48} {
		rng := rand.New(rand.NewSource(seed))
		tab := &table{capacity: capacity}
		tab.purge()
		m := &model{capacity: capacity, m: map[Key]*modelEntry{}}
		fail := func(format string, args ...any) {
			t.Helper()
			t.Errorf("seed %d, capacity %d: "+format, append([]any{seed, capacity}, args...)...)
			t.FailNow()
		}
		// A key space a few times the capacity, so capped tables evict and
		// tombstones pile up; the unbounded table gets one big enough to
		// grow its index several times.
		space := 4 * capacity
		if capacity == 0 {
			space = 600
		}
		randKey := func() Key { return Key{Src: ad.ID(1 + rng.Intn(space)), Dst: ad.ID(rng.Intn(2))} }
		randLink := func() [2]ad.ID { return [2]ad.ID{ad.ID(rng.Intn(4)), ad.ID(4 + rng.Intn(3))} }
		randTerm := func() policy.Key { return policy.Key{Advertiser: ad.ID(rng.Intn(7)), Serial: uint32(rng.Intn(3))} }
		// A route of one to five ADs alternating between 0-3 and 4-6, so
		// its links are randLink's; it may revisit an AD, and so hold one
		// link or term twice. Each transit AD charges serial 0 (none), 1
		// or 2.
		randRoute := func() (ad.Path, synthesis.Footprint) {
			path := make(ad.Path, 1+rng.Intn(5))
			for i := range path {
				path[i] = ad.ID(i%2*4 + rng.Intn(4-i%2))
			}
			charged := make([]uint32, max(len(path)-2, 0))
			for i := range charged {
				charged[i] = uint32(rng.Intn(3))
			}
			return path, synthesis.FootprintOf(path, charged)
		}
		sameContents := func() {
			t.Helper()
			if tab.live != len(m.m) {
				fail("live = %d, model holds %d", tab.live, len(m.m))
			}
			tab.each(func(e *entry) {
				me := m.m[e.key]
				if me == nil || int(e.slot) != me.slot || (e.state.Load()&referenced != 0) != me.ref ||
					e.found != me.res.Found || !e.path.Equal(me.res.Path) {
					fail("resident %+v (slot %d) disagrees with the model's %+v", e.key, e.slot, me)
				}
			})
			checkTable(t, tab)
			for _, c := range []synthesis.Change{
				synthesis.LinkDownChange(randLink()[0], randLink()[1]),
				synthesis.LinkUpChange(1, 2),
				{Kind: synthesis.ChangePolicy, RemovedTerms: []policy.Key{randTerm(), randTerm()}, Broadens: rng.Intn(2) == 0},
			} {
				if got, want := keysOf(tab.victims(c)), m.victims(c); !slices.Equal(got, want) {
					fail("victims(%+v) = %v, brute force %v", c, got, want)
				}
			}
		}

		rebuilds, last := 0, tab.idx.Load()
		for op := 0; op < 20000; op++ {
			k := randKey()
			h := hash(k)
			switch r := rng.Intn(100); {
			case r < 45: // put: new, replacing, or evicting
				res := Result{Found: rng.Intn(3) > 0}
				var fp synthesis.Footprint
				if res.Found {
					res.Path, fp = randRoute()
				}
				if got, want := putEntry(t, tab, k, res, fp), m.put(k, res, fp); got != want {
					fail("op %d: put(%+v) evicted = %v, model %v", op, k, got, want)
				}
			case r < 75: // hit
				e, me := tab.get(k, h), m.get(k)
				if (e == nil) != (me == nil) || e != nil && (!e.path.Equal(me.res.Path) || int(e.slot) != me.slot) {
					fail("op %d: get(%+v) = %+v, model %+v", op, k, e, me)
				}
			case r < 85: // peek: the reference bit must not move
				if _, e := tab.idx.Load().locate(k, h); (e == nil) != (m.m[k] == nil) {
					fail("op %d: locate(%+v) = %+v, model %+v", op, k, e, m.m[k])
				}
			case r < 95: // delete
				if _, e := tab.idx.Load().locate(k, h); e != nil {
					tab.remove(e)
					m.del(k)
				}
			case r < 99: // scoped eviction
				c := synthesis.LinkDownChange(randLink()[0], randLink()[1])
				want := m.victims(c)
				if got := tab.evictScoped(c); got != len(want) {
					fail("op %d: evictScoped(%+v) = %d, brute force %d", op, c, got, len(want))
				}
				// Slot order, as the table evicts: the free list is LIFO.
				slices.SortFunc(want, func(a, b Key) int { return m.m[a].slot - m.m[b].slot })
				for _, vk := range want {
					m.del(vk)
				}
			default:
				if rng.Intn(20) == 0 { // rare, or nothing ever fills up
					tab.purge()
					*m = model{capacity: capacity, m: map[Key]*modelEntry{}}
				}
			}
			if ix := tab.idx.Load(); ix != last {
				rebuilds, last = rebuilds+1, ix
			}
			if op%500 == 0 {
				sameContents()
			}
		}
		sameContents()
		if rebuilds < 5 {
			t.Errorf("seed %d, capacity %d: only %d index rebuilds; the run did not exercise them", seed, capacity, rebuilds)
		}
	}
}

// TestDeadTurnsBackStaleProbe is the case dead exists for, made to happen:
// a reader that loaded the index before a rebuild still finds an entry
// there after its deletion — the tombstone went into the new index — and
// only the flag tells it to start over.
func TestDeadTurnsBackStaleProbe(t *testing.T) {
	tab := &table{}
	tab.purge()
	k := Key{Src: 1, Dst: 2}
	putEntry(t, tab, k, Result{}, synthesis.Footprint{})
	stale := tab.idx.Load()
	for i := 0; tab.idx.Load() == stale; i++ {
		putEntry(t, tab, Key{Src: ad.ID(10 + i)}, Result{}, synthesis.Footprint{})
	}
	if e, retry := stale.find(k, hash(k)); e == nil || retry {
		t.Fatalf("superseded index: find = %v, %v; want the live entry", e, retry)
	}
	tab.remove(tab.get(k, hash(k)))
	if e, retry := stale.find(k, hash(k)); e == nil || !retry {
		t.Fatalf("superseded index after the delete: find = %v, %v; want the entry, marked for a retry", e, retry)
	}
	if e := tab.get(k, hash(k)); e != nil {
		t.Fatalf("get returned the deleted entry %+v", e)
	}
	// Replacement and purge unpublish too.
	o := Key{Src: 10}
	first := tab.get(o, hash(o))
	putEntry(t, tab, o, Result{Found: true}, synthesis.Footprint{})
	second := tab.get(o, hash(o))
	if !first.isDead() || second == first || second.isDead() {
		t.Fatalf("replacement: old dead = %v, new = %+v", first.isDead(), second)
	}
	tab.purge()
	if !second.isDead() || tab.get(o, hash(o)) != nil {
		t.Fatal("purge left an entry alive")
	}
}

// TestLockFreeReadersVersusWriter has readers hammer the lock-free lookup
// while one writer inserts, replaces, evicts for capacity, scoped-evicts
// and purges. Every published answer carries its key and a per-key version
// in its last AD, after the link its key depends on.
// A reader must never see a pairing that was not published, and never an
// entry at or below the version whose eviction had already returned when
// the lookup began. make determinism runs it at -cpu 1,2,4; make race runs
// it under the detector.
func TestLockFreeReadersVersusWriter(t *testing.T) {
	const keys, links = 96, 4
	// Capped below the key count: replacement, tombstones and rebuilds all
	// happen under the readers' feet.
	srv := New(stubStrategy{}, Config{Capacity: 64})
	keyAt := func(i int) Key { return Key{Src: ad.ID(1 + i), Dst: ad.ID(1000 + i), Hour: uint8(i % 24)} }
	linkAt := func(j int) [2]ad.ID { return [2]ad.ID{ad.ID(j), ad.ID(100 + j)} }
	const stamp = 100000 // last AD = stamp*(1+key) + version; versions stay below it
	routeOf := func(i int, version uint32) ad.Path {
		l := linkAt(i % links)
		return ad.Path{l[0], l[1], ad.ID(stamp*(1+i)) + ad.ID(version)}
	}
	var published, evicted [keys]atomic.Uint32

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := rng.Intn(keys)
				k := keyAt(i)
				floor := evicted[i].Load()
				e := srv.tab.get(k, hash(k))
				if e == nil {
					continue
				}
				res := e.result()
				if !res.Found || len(res.Path) != 3 || !res.Path[:2].Equal(routeOf(i, 0)[:2]) || int(res.Path[2])/stamp != 1+i {
					t.Errorf("lookup(%+v) = %+v: not an answer published for this key", k, res)
					return
				}
				if v := uint32(res.Path[2]) % stamp; v <= floor || v > published[i].Load() {
					t.Errorf("lookup(%+v) saw version %d: evictions through %d had returned, %d published", k, v, floor, published[i].Load())
					return
				}
			}
		}(int64(r))
	}

	rng := rand.New(rand.NewSource(1))
	var version [keys]uint32
	evictedThrough := func(match func(i int) bool) {
		for i := range version {
			if match(i) {
				evicted[i].Store(version[i])
			}
		}
	}
	for op := 0; op < 30000; op++ {
		switch r := rng.Intn(100); {
		case r < 90: // insert or replace
			i := rng.Intn(keys)
			k := keyAt(i)
			version[i]++
			published[i].Store(version[i])
			path := routeOf(i, version[i])
			srv.InstallEntry(k, Result{Path: path, Found: true}, synthesis.FootprintOf(path, []uint32{0}))
		case r < 99:
			j := rng.Intn(links)
			srv.MutateScoped(synthesis.LinkDownChange(linkAt(j)[0], linkAt(j)[1]), nil)
			evictedThrough(func(i int) bool { return i%links == j })
		default:
			srv.Mutate(nil)
			evictedThrough(func(int) bool { return true })
		}
	}
	close(stop)
	wg.Wait()
	checkTable(t, &srv.tab)
}

// TestReverseIndexStaysBounded is the bound that protects heap_mb: a small
// capped server takes well over ten times its capacity in inserts with
// scoped link and policy mutations in between, after which the reverse
// index holds exactly its live edges (checkTable), in buckets of at most
// four times their length in capacity, and resolves every change to exactly
// the entries a brute-force scan of resident footprints names.
func TestReverseIndexStaysBounded(t *testing.T) {
	g, db, workload := testbed(29, 4000)
	const capacity = 32
	target := ad.ID(0)
	for _, info := range g.ADs() {
		if info.Class == ad.Transit && len(db.Terms(info.ID)) > 0 {
			target = info.ID
			break
		}
	}
	original := append([]policy.Term(nil), db.Terms(target)...)
	links := g.Links()
	lat := links[len(links)-1]
	srv := New(synthesis.NewOnDemand(g, db), Config{Capacity: capacity})

	for i, req := range workload {
		req.Hour = uint8(i % 24) // 24 keys a pair: the cache thrashes
		srv.Query(req)
		switch i % 200 {
		case 50:
			srv.MutateScoped(synthesis.LinkDownChange(lat.A, lat.B), func() { g.RemoveLink(lat.A, lat.B) })
		case 100:
			srv.MutateScoped(synthesis.LinkUpChange(lat.A, lat.B), func() {
				if err := g.AddLink(lat); err != nil {
					t.Fatal(err)
				}
			})
		case 150:
			srv.MutateScoped(synthesis.PolicyChangeOf(db.DiffTerms(target, nil)), func() { db.SetTerms(target, nil) })
		case 199:
			srv.MutateScoped(synthesis.PolicyChangeOf(db.DiffTerms(target, original)), func() { db.SetTerms(target, original) })
		}
	}
	snap := srv.Snapshot()
	if snap.Misses < 10*capacity || snap.Evictions == 0 || snap.ScopedEvicted == 0 {
		t.Fatalf("the run did not thrash: %+v", snap)
	}

	var changes []synthesis.Change
	for _, l := range links {
		changes = append(changes, synthesis.LinkDownChange(l.A, l.B))
	}
	for _, info := range g.ADs() {
		if ch := synthesis.PolicyChangeOf(db.DiffTerms(info.ID, nil)); len(ch.RemovedTerms) > 0 {
			changes = append(changes, ch)
		}
	}
	changes = append(changes, synthesis.LinkUpChange(lat.A, lat.B))
	edges, room, buckets := checkTable(t, &srv.tab)
	m := &model{m: map[Key]*modelEntry{}}
	srv.tab.each(func(e *entry) { m.m[e.key] = &modelEntry{res: Result{Found: e.found}, fp: e.footprint()} })
	for _, c := range changes {
		if got, want := keysOf(srv.tab.victims(c)), m.victims(c); !slices.Equal(got, want) {
			t.Fatalf("victims(%+v) = %v, brute force %v", c, got, want)
		}
	}
	if edges == 0 || room > 4*edges+minBucket*buckets {
		t.Fatalf("reverse index: capacity %d for %d edges in %d buckets", room, edges, buckets)
	}
}

// mislinked hides stubStrategy's AppendCharged and reports a footprint whose
// links are not the route's: a strategy the table cannot store compactly.
type mislinked struct{ synthesis.Strategy }

func (mislinked) Footprint(req policy.Request, _ ad.Path) synthesis.Footprint {
	return synthesis.Footprint{Links: [][2]ad.ID{{req.Src, req.Dst}}}
}

// TestForeignFootprintIsRefused pins what the table does with a footprint
// that is not its path's (links other than the path's, a term off the
// path's transit ADs, a serial 0, a negative answer with dependencies): it
// refuses the entry. A computed answer is served but not cached, so the
// next query for it misses again; an installed one is dropped. The same
// answer with its path's own footprint is cached and exported as given.
func TestForeignFootprintIsRefused(t *testing.T) {
	srv := New(mislinked{stubStrategy{}}, Config{})
	k := Key{Src: 7, Dst: 9}
	res := srv.Query(k)
	if !res.Found || len(res.Path) != 5 {
		t.Fatalf("query = %+v", res)
	}
	srv.Query(k)
	if n, s := srv.CacheLen(), srv.Snapshot(); n != 0 || s.Misses != 2 {
		t.Fatalf("computed with a foreign footprint: %d cached, %d misses; want 0 and 2", n, s.Misses)
	}
	own := synthesis.FootprintOf(res.Path, []uint32{1, 0, 3})
	for _, fp := range []synthesis.Footprint{
		{Links: own.Links[1:], Terms: own.Terms},
		{Links: own.Links, Terms: []policy.Key{{Advertiser: res.Path[0], Serial: 1}}},
		{Links: own.Links, Terms: []policy.Key{{Advertiser: res.Path[1], Serial: 0}}},
		{Links: own.Links, Terms: []policy.Key{own.Terms[1], own.Terms[0]}},
	} {
		srv.InstallEntry(k, res, fp)
		if n := srv.CacheLen(); n != 0 {
			t.Fatalf("installed with footprint %+v: %d cached, want 0", fp, n)
		}
	}
	srv.InstallEntry(Key{Src: 1, Dst: 2}, Result{}, own)
	srv.InstallEntry(k, res, own)
	if got := srv.DumpEntries(nil); len(got) != 1 || !reflect.DeepEqual(got[0], CacheEntry{Key: k, Res: res, Fp: own}) {
		t.Fatalf("dump = %+v, want the one entry with footprint %+v", got, own)
	}
}

// TestExportedFootprintsRoundTrip: every footprint the server exports — to
// the OnInsert hook, from DumpEntries and from CollectAffected — equals the
// one the strategy's Footprint produces for that key and path, though an
// entry stores only the serials its strategy charged.
func TestExportedFootprintsRoundTrip(t *testing.T) {
	g, db, workload := testbed(31, 600)
	strat := synthesis.NewOnDemand(g, db)
	srv := New(strat, Config{})
	var hooked []CacheEntry
	srv.OnInsert(func(k Key, res Result, fp synthesis.Footprint) {
		hooked = append(hooked, CacheEntry{Key: k, Res: res, Fp: fp})
	})
	ServePhase(srv, workload, 4)
	dumped := srv.DumpEntries(nil)
	affected, _, _, _, err := srv.CollectAffected(func() ([]synthesis.Change, error) {
		var cs []synthesis.Change
		for _, l := range g.Links() {
			cs = append(cs, synthesis.LinkDownChange(l.A, l.B))
		}
		return cs, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	routes, terms := 0, 0
	check := func(from string, ce CacheEntry) {
		t.Helper()
		var want synthesis.Footprint
		if ce.Res.Found {
			want = strat.Footprint(ce.Key, ce.Res.Path)
			routes++
			terms += len(want.Terms)
		}
		if !reflect.DeepEqual(ce.Fp, want) {
			t.Fatalf("%s: %+v exports footprint %+v, the strategy's is %+v", from, ce.Key, ce.Fp, want)
		}
	}
	for _, ce := range hooked {
		check("OnInsert", ce)
	}
	for _, ce := range dumped {
		check("DumpEntries", ce)
	}
	for _, ces := range affected {
		for _, ce := range ces {
			check("CollectAffected", ce)
		}
	}
	if len(hooked) != len(dumped) || routes == 0 || terms == 0 {
		t.Fatalf("%d hooked, %d dumped, %d routes with %d terms checked", len(hooked), len(dumped), routes, terms)
	}
}

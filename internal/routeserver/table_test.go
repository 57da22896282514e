package routeserver

import (
	"flag"
	"math/rand"
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
// produced: the low bits place a key in a shard, and DumpEntries — hence an
// HA snapshot — walks shards in order.
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
		if c.Kind == synthesis.ChangeLinkDown && slices.Contains(e.fp.Links, synthesis.CanonicalPair(c.A, c.B)) {
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

// checkShard verifies the table's own invariants: the index holds exactly
// the ring's entries and keeps its load bound, every resident entry is
// reachable from each bucket its footprint names, bucket counts are exact,
// no bucket is more than half dead, and no key is both resident and pending.
// Every caller's server is quiescent, so pending must be empty altogether.
// It returns Σ len(refs), Σ live and the bucket count. Caller holds mu or
// owns sh.
func checkShard(t *testing.T, sh *shard) (refs, live, buckets int) {
	t.Helper()
	ix := sh.idx.Load()
	var indexed, used int
	for i := range ix.slots {
		switch e := ix.slots[i].Load(); {
		case e == nil:
		case e == tombstone:
			used++
		default:
			used++
			indexed++
			if e.dead.Load() || sh.ring[e.slot].e != e || sh.ring[e.slot].gen != e.gen {
				t.Fatalf("index holds %+v, which the ring does not", e.key)
			}
		}
	}
	if indexed != sh.live || used != sh.used || used*4 > len(ix.slots)*3 {
		t.Fatalf("index: %d entries (live %d), %d used (counted %d) of %d slots", indexed, sh.live, used, sh.used, len(ix.slots))
	}
	resident := 0
	sh.each(func(e *entry) {
		resident++
		if sh.pending[e.key] != nil {
			t.Fatalf("%+v is both resident and pending", e.key)
		}
		if _, got := ix.locate(e.key, hash(e.key)); got != e {
			t.Fatalf("resident %+v is not reachable through the index", e.key)
		}
		inBucket := func(b *bucket) bool {
			return b != nil && slices.Contains(b.refs, ref{e.slot, e.gen})
		}
		if !e.found && !inBucket(&sh.negs) {
			t.Fatalf("negative %+v is not in negs", e.key)
		}
		for _, l := range e.fp.Links {
			if e.found && !inBucket(sh.byLink[l]) {
				t.Fatalf("%+v is not reachable from link %v", e.key, l)
			}
		}
		for _, tk := range e.fp.Terms {
			if e.found && !inBucket(sh.byTerm[tk]) {
				t.Fatalf("%+v is not reachable from term %v", e.key, tk)
			}
		}
	})
	if len(sh.pending) != 0 {
		t.Fatalf("%d claims pending on a quiescent shard", len(sh.pending))
	}
	if resident != sh.live || len(sh.free)+resident > len(sh.ring) {
		t.Fatalf("ring: %d resident (live %d), %d free of %d slots", resident, sh.live, len(sh.free), len(sh.ring))
	}
	bucket := func(b *bucket) {
		buckets++
		refs += len(b.refs)
		live += b.live
		if n := len(b.appendLive(nil, sh.ring)); n != b.live || len(b.refs) > 2*b.live {
			t.Fatalf("bucket: live = %d, %d live refs of %d", b.live, n, len(b.refs))
		}
	}
	bucket(&sh.negs)
	for _, b := range sh.byLink {
		bucket(b)
	}
	for _, b := range sh.byTerm {
		bucket(b)
	}
	return refs, live, buckets
}

// TestTableDifferential drives one shard and the model in lockstep with
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
		sh := &shard{capacity: capacity}
		sh.purge()
		m := &model{capacity: capacity, m: map[Key]*modelEntry{}}
		fail := func(format string, args ...any) {
			t.Helper()
			t.Errorf("seed %d, capacity %d: "+format, append([]any{seed, capacity}, args...)...)
			t.FailNow()
		}
		// A key space a few times the capacity, so capped shards evict and
		// tombstones pile up; the unbounded shard gets one big enough to
		// grow its index several times.
		space := 4 * capacity
		if capacity == 0 {
			space = 600
		}
		randKey := func() Key { return Key{Src: ad.ID(1 + rng.Intn(space)), Dst: ad.ID(rng.Intn(2))} }
		randLink := func() [2]ad.ID { return [2]ad.ID{ad.ID(rng.Intn(4)), ad.ID(4 + rng.Intn(3))} }
		randTerm := func() policy.Key { return policy.Key{Advertiser: ad.ID(rng.Intn(3)), Serial: uint32(rng.Intn(3))} }
		sameContents := func() {
			t.Helper()
			if sh.live != len(m.m) {
				fail("live = %d, model holds %d", sh.live, len(m.m))
			}
			sh.each(func(e *entry) {
				me := m.m[e.key]
				if me == nil || int(e.slot) != me.slot || e.ref.Load() != me.ref ||
					e.found != me.res.Found || !e.path.Equal(me.res.Path) {
					fail("resident %+v (slot %d) disagrees with the model's %+v", e.key, e.slot, me)
				}
			})
			checkShard(t, sh)
			for _, c := range []synthesis.Change{
				synthesis.LinkDownChange(randLink()[0], randLink()[1]),
				synthesis.LinkUpChange(1, 2),
				{Kind: synthesis.ChangePolicy, RemovedTerms: []policy.Key{randTerm(), randTerm()}, Broadens: rng.Intn(2) == 0},
			} {
				if got, want := keysOf(sh.victims(c)), m.victims(c); !slices.Equal(got, want) {
					fail("victims(%+v) = %v, brute force %v", c, got, want)
				}
			}
		}

		rebuilds, last := 0, sh.idx.Load()
		for op := 0; op < 20000; op++ {
			k := randKey()
			h := hash(k)
			switch r := rng.Intn(100); {
			case r < 45: // put: new, replacing, or evicting
				res := Result{Found: rng.Intn(3) > 0}
				var fp synthesis.Footprint
				if res.Found {
					res.Path = ad.Path{k.Src, ad.ID(op), k.Dst}
					for i := rng.Intn(4); i > 0; i-- {
						fp.Links = append(fp.Links, randLink())
						fp.Terms = append(fp.Terms, randTerm())
					}
				}
				if got, want := sh.put(k, h, res, fp), m.put(k, res, fp); got != want {
					fail("op %d: put(%+v) evicted = %v, model %v", op, k, got, want)
				}
			case r < 75: // hit
				e, me := sh.get(k, h), m.get(k)
				if (e == nil) != (me == nil) || e != nil && !e.path.Equal(me.res.Path) {
					fail("op %d: get(%+v) = %+v, model %+v", op, k, e, me)
				}
			case r < 85: // peek: the reference bit must not move
				if _, e := sh.idx.Load().locate(k, h); (e == nil) != (m.m[k] == nil) {
					fail("op %d: locate(%+v) = %+v, model %+v", op, k, e, m.m[k])
				}
			case r < 95: // delete
				if _, e := sh.idx.Load().locate(k, h); e != nil {
					sh.remove(e)
					m.del(k)
				}
			case r < 99: // scoped eviction
				c := synthesis.LinkDownChange(randLink()[0], randLink()[1])
				want := m.victims(c)
				if got := sh.evictScoped(c); got != len(want) {
					fail("op %d: evictScoped(%+v) = %d, brute force %d", op, c, got, len(want))
				}
				// Slot order, as the table evicts: the free list is LIFO.
				slices.SortFunc(want, func(a, b Key) int { return m.m[a].slot - m.m[b].slot })
				for _, vk := range want {
					m.del(vk)
				}
			default:
				if rng.Intn(20) == 0 { // rare, or nothing ever fills up
					sh.purge()
					*m = model{capacity: capacity, m: map[Key]*modelEntry{}}
				}
			}
			if ix := sh.idx.Load(); ix != last {
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
	sh := &shard{}
	sh.purge()
	k := Key{Src: 1, Dst: 2}
	sh.put(k, hash(k), Result{}, synthesis.Footprint{})
	stale := sh.idx.Load()
	for i := 0; sh.idx.Load() == stale; i++ {
		o := Key{Src: ad.ID(10 + i)}
		sh.put(o, hash(o), Result{}, synthesis.Footprint{})
	}
	if e, retry := stale.find(k, hash(k)); e == nil || retry {
		t.Fatalf("superseded index: find = %v, %v; want the live entry", e, retry)
	}
	sh.remove(sh.get(k, hash(k)))
	if e, retry := stale.find(k, hash(k)); e == nil || !retry {
		t.Fatalf("superseded index after the delete: find = %v, %v; want the entry, marked for a retry", e, retry)
	}
	if e := sh.get(k, hash(k)); e != nil {
		t.Fatalf("get returned the deleted entry %+v", e)
	}
	// Replacement and purge unpublish too.
	o := Key{Src: 10}
	first := sh.get(o, hash(o))
	sh.put(o, hash(o), Result{Found: true}, synthesis.Footprint{})
	second := sh.get(o, hash(o))
	if !first.dead.Load() || second == first || second.dead.Load() {
		t.Fatalf("replacement: old dead = %v, new = %+v", first.dead.Load(), second)
	}
	sh.purge()
	if !second.dead.Load() || sh.get(o, hash(o)) != nil {
		t.Fatal("purge left an entry alive")
	}
}

// TestTableSlotRetires: a ring slot at its last gen is never handed out
// again, so a (slot, gen) ref can never come to name a later tenant.
func TestTableSlotRetires(t *testing.T) {
	sh := &shard{}
	sh.purge()
	k := Key{Src: 1, Dst: 2}
	sh.put(k, hash(k), Result{}, synthesis.Footprint{})
	sh.ring[0].gen = maxGen - 1
	sh.remove(sh.get(k, hash(k)))
	if len(sh.free) != 0 || sh.ring[0].gen != maxGen {
		t.Fatalf("slot at its last gen went back on the free list: free %v, gen %d", sh.free, sh.ring[0].gen)
	}
	sh.put(k, hash(k), Result{}, synthesis.Footprint{})
	if e := sh.get(k, hash(k)); e == nil || e.slot != 1 || e.gen != 0 {
		t.Fatalf("after retirement the entry sits at %+v, want slot 1 gen 0", e)
	}
	checkShard(t, sh)
}

// TestLockFreeReadersVersusWriter has readers hammer the lock-free lookup
// while one writer inserts, replaces, evicts for capacity, scoped-evicts
// and purges. Every published answer carries its key and a per-key version.
// A reader must never see a pairing that was not published, and never an
// entry at or below the version whose eviction had already returned when
// the lookup began. make determinism runs it at -cpu 1,2,4; make race runs
// it under the detector.
func TestLockFreeReadersVersusWriter(t *testing.T) {
	const keys, links = 96, 4
	// Capped below the key count: replacement, tombstones and rebuilds all
	// happen under the readers' feet.
	srv := New(stubStrategy{}, Config{Shards: 2, Capacity: 64})
	keyAt := func(i int) Key { return Key{Src: ad.ID(1 + i), Dst: ad.ID(1000 + i), Hour: uint8(i % 24)} }
	linkAt := func(j int) [2]ad.ID { return [2]ad.ID{ad.ID(j), ad.ID(100 + j)} }
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
				e := srv.shards[hash(k)&srv.mask].get(k, hash(k))
				if e == nil {
					continue
				}
				res := e.result()
				if !res.Found || len(res.Path) != 3 || res.Path[0] != k.Src || res.Path[2] != k.Dst {
					t.Errorf("lookup(%+v) = %+v: not an answer published for this key", k, res)
					return
				}
				if v := uint32(res.Path[1]); v <= floor || v > published[i].Load() {
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
			srv.InstallEntry(k, Result{Path: ad.Path{k.Src, ad.ID(version[i]), k.Dst}, Found: true},
				synthesis.Footprint{Links: [][2]ad.ID{linkAt(i % links)}})
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
	for i := range srv.shards {
		checkShard(t, &srv.shards[i])
	}
}

// TestReverseIndexStaysBounded is the bound that protects heap_mb: a small
// capped server takes well over ten times its capacity in inserts with
// scoped link and policy mutations in between, after which the reverse
// index holds at most two refs per live one, reaches every resident entry,
// and resolves every change to exactly the entries a brute-force scan of
// resident footprints names. (That a dangling ref is not counted as
// eviction work is TestEvictScopedCountsActualDeletions.)
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
	srv := New(synthesis.NewOnDemand(g, db), Config{Shards: 2, Capacity: capacity})

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
	var refs, live, buckets int
	for i := range srv.shards {
		sh := &srv.shards[i]
		r, l, b := checkShard(t, sh)
		refs, live, buckets = refs+r, live+l, buckets+b
		m := &model{m: map[Key]*modelEntry{}}
		sh.each(func(e *entry) { m.m[e.key] = &modelEntry{res: Result{Found: e.found}, fp: e.fp} })
		for _, c := range changes {
			if got, want := keysOf(sh.victims(c)), m.victims(c); !slices.Equal(got, want) {
				t.Fatalf("shard %d: victims(%+v) = %v, brute force %v", i, c, got, want)
			}
		}
	}
	if live == 0 || refs > 2*live+8*buckets {
		t.Fatalf("reverse index: %d refs for %d live in %d buckets", refs, live, buckets)
	}
}

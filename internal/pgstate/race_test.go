package pgstate

// Concurrency stress for one table, meaningful under -race (the Makefile's
// race target runs this package explicitly, mirroring the ha package's
// double-race pattern). Handles are drawn from a small space so goroutines
// constantly collide on the same handles; the assertions are
// deliberately weak (the differential harness owns exact semantics) — this
// test exists so the race detector can watch every lock path at once.

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/ad"
	"repro/internal/sim"
)

func TestConcurrentStress(t *testing.T) {
	const (
		workers = 8
		opsEach = 4000
		space   = 256 // handle space << workers*ops: heavy handle overlap
	)
	tab := NewTable(Config{Kind: Soft, TTL: 2 * sim.Second})
	var clock atomic.Int64 // shared monotone clock, coarse ticks
	clock.Store(1)
	var wg sync.WaitGroup
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < opsEach; i++ {
				now := sim.Time(clock.Add(int64(rng.Intn(3))))
				h := uint64(rng.Intn(space)) + 1
				switch rng.Intn(10) {
				case 0, 1, 2:
					route := ad.Path{ad.ID(rng.Intn(4) + 1), ad.ID(rng.Intn(4) + 5)}
					tab.Install(now, h, route, 0, testReq, sim.Time(1+rng.Intn(3))*sim.Second)
				case 3, 4:
					tab.Lookup(now, h)
				case 5:
					tab.Peek(now, h)
				case 6:
					tab.Refresh(now, h, 0)
				case 7:
					tab.Remove(h)
				case 8:
					tab.ExpireDue(now)
				default:
					tab.HandlesCrossing(ad.ID(rng.Intn(4)+1), ad.ID(rng.Intn(4)+5))
				}
			}
		}(int64(wkr + 1))
	}
	wg.Wait()
	// Sanity: counters and residency are coherent after the dust settles.
	st := tab.Stats()
	if st.Resident != tab.Len() || st.Resident != len(tab.Handles()) {
		t.Fatalf("resident bookkeeping diverged: stats=%d len=%d handles=%d",
			st.Resident, tab.Len(), len(tab.Handles()))
	}
	if st.Peak < st.Resident {
		t.Fatalf("peak %d below resident %d", st.Peak, st.Resident)
	}
	if st.Installs == 0 || st.Hits+st.Misses == 0 {
		t.Fatalf("stress ran no ops? %+v", st)
	}
	// Drain everything and confirm the table empties cleanly.
	for _, h := range tab.Handles() {
		tab.Remove(h)
	}
	if tab.Len() != 0 {
		t.Fatalf("table not empty after removing all handles: %d left", tab.Len())
	}
}

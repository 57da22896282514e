package experiments

import (
	"flag"
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"testing"
	"time"

	"repro/internal/protocols"
	"repro/internal/topology"
)

var ladder = flag.Bool("ladder", false, "run TestE9Ladder: E9's designs on E9's internets and on 10³- and 3×10³-AD ones (minutes; make e9-ladder)")

// e9Rungs are the ladder's internets beyond E9's own, built the way E9's
// largest is: 1,092 ADs and 1,403 links, then 2,728 ADs and 3,617 links.
var e9Rungs = []topology.Config{
	{Backbones: 4, RegionalsPerBackbone: 8, MetrosPerRegional: 3, CampusesPerParent: 10, LateralProb: 0.05, BypassProb: 0.05},
	{Backbones: 8, RegionalsPerBackbone: 10, MetrosPerRegional: 3, CampusesPerParent: 10, LateralProb: 0.05, BypassProb: 0.05},
}

// idrpLadderMaxADs bounds the rungs IDRP runs on. Its traffic and RIBs
// grow much faster than the internet: at 1,092 ADs it sends 2.3 GB of
// path-vector updates and its heap peaks near 0.8 GB, growing as about
// N^2.3, which puts the 2,728-AD rung near 6 GB.
const idrpLadderMaxADs = 2000

// TestE9Ladder converges E9's five designs on E9's four internets and on
// the two rungs above them, one run at a time, with E9's policy, and prints
// per (internet, design): whether it converged, the wall time, the peak
// heap while converging (heap objects sampled every 10 ms) and the live
// heap after convergence (after a GC), each less the heap before the system
// was built, the bytes allocated on the way, and the messages and wire
// bytes sent. E9's rows must come out with E9's messages and bytes. It runs
// only with -ladder.
func TestE9Ladder(t *testing.T) {
	if !*ladder {
		t.Skip("run with -ladder (make e9-ladder)")
	}
	e9 := E9MessageScaling(seed).Rows
	sizes := e9Sizes(seed)
	for _, c := range e9Rungs {
		c.Seed = seed
		sizes = append(sizes, c)
	}
	fmt.Println("| ADs | links | design | converged | wall | peak heap | live heap | allocated | messages | bytes |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|---|")
	for i, c := range sizes {
		g := topology.Generate(c).Graph
		db := e9Policy(g, seed)
		for j, name := range e9Designs {
			row := fmt.Sprintf("| %d | %d | %s |", g.NumADs(), g.NumLinks(), name)
			if name == "idrp" && g.NumADs() > idrpLadderMaxADs {
				fmt.Println(row, "not run: IDRP's peak heap, extrapolated from the 1,092-AD rung, is near 6 GB here | | | | | | |")
				continue
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			peak := samplePeakHeap()
			start := time.Now()
			sys := protocols.Lookup(name).New(g.Clone(), db)
			_, ok := sys.Converge(convergenceLimit)
			wall := time.Since(start)
			top := peak()
			runtime.GC()
			runtime.ReadMemStats(&after)
			st := sys.Network().Stats
			above := func(b uint64) float64 { return float64(b-min(b, before.HeapAlloc)) / (1 << 20) }
			fmt.Printf("%s %v | %.2f s | %.1f MB | %.1f MB | %.1f MB | %d | %d |\n", row, ok, wall.Seconds(),
				above(top), above(after.HeapAlloc), float64(after.TotalAlloc-before.TotalAlloc)/(1<<20),
				st.MessagesSent, st.BytesSent)
			if !ok {
				t.Errorf("%s did not converge on %d ADs", name, g.NumADs())
			}
			if k := i*len(e9Designs) + j; k < len(e9) {
				if want := e9[k][3:5]; fmt.Sprint(st.MessagesSent) != want[0] || fmt.Sprint(st.BytesSent) != want[1] {
					t.Errorf("%s on %d ADs: %d messages and %d bytes, E9 reports %v", name, g.NumADs(), st.MessagesSent, st.BytesSent, want)
				}
			}
			runtime.KeepAlive(sys)
		}
	}
}

// samplePeakHeap samples the bytes in heap objects every 10 ms until the
// function it returns is called, which returns the largest sample.
func samplePeakHeap() func() uint64 {
	done, peak := make(chan struct{}), make(chan uint64)
	go func() {
		s := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		var top uint64
		for {
			rtmetrics.Read(s)
			top = max(top, s[0].Value.Uint64())
			select {
			case <-done:
				peak <- top
				return
			case <-tick.C:
			}
		}
	}()
	return func() uint64 {
		close(done)
		return <-peak
	}
}

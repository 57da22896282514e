package experiments

import (
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkRows times every experiment in the report on one worker — its
// serial cost, and with -benchmem the bytes and allocations one run of it
// takes — and each experiment that splits into row tasks once more on one
// worker per CPU: the ratio of the two is what the fan-out buys on the
// machine at hand.
func BenchmarkRows(b *testing.B) {
	for _, e := range report {
		workers := []int{1}
		if len(e.rows(seed).tasks) > 1 && runtime.GOMAXPROCS(0) > 1 {
			workers = append(workers, runtime.GOMAXPROCS(0))
		}
		for _, w := range workers {
			b.Run(fmt.Sprintf("%s/workers=%d", e.name, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					e.rows(seed).run(w)
				}
			})
		}
	}
}

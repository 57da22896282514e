package experiments

import (
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkRows times every experiment that splits into row tasks on one
// worker and on one per CPU: the ratio of the two is what the fan-out buys
// on the machine at hand, and the one-worker time is the experiment's
// serial cost.
func BenchmarkRows(b *testing.B) {
	for _, e := range report {
		if len(e.rows(seed).tasks) < 2 {
			continue
		}
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("%s/workers=%d", e.name, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					e.rows(seed).run(workers)
				}
			})
		}
	}
}

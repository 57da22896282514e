package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestNormalize(t *testing.T) {
	if got := Normalize(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Normalize(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Normalize(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Normalize(-3) = %d", got)
	}
	if got := Normalize(7); got != 7 {
		t.Errorf("Normalize(7) = %d", got)
	}
}

// TestDoRunsEveryTaskOnce covers fewer workers than tasks, as many, and
// more. Each task sleeps briefly so that every worker claims
// some: a cursor that skipped or repeated an index would show.
func TestDoRunsEveryTaskOnce(t *testing.T) {
	const n = 50
	for _, workers := range []int{1, 2, 3, n, n + 5} {
		counts := make([]int32, n)
		tasks := make([]func(), n)
		for i := range tasks {
			tasks[i] = func() {
				atomic.AddInt32(&counts[i], 1)
				time.Sleep(100 * time.Microsecond)
			}
		}
		Do(workers, tasks)
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestDoEmpty(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4} {
		Do(workers, nil) // must not hang or panic
		Do(workers, []func(){})
	}
}

// TestDoGoroutineBound pins Do's shape: the caller is one of the workers,
// so a call with parallelism p never has more than p-1 goroutines of its
// own alive, whatever the length of the task list.
func TestDoGoroutineBound(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 40} {
		before := runtime.NumGoroutine()
		var peak atomic.Int64
		tasks := make([]func(), 30)
		for i := range tasks {
			tasks[i] = func() {
				n := int64(runtime.NumGoroutine())
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
		Do(workers, tasks)
		if limit := before + min(workers, len(tasks)) - 1; peak.Load() > int64(limit) {
			t.Errorf("workers=%d: %d goroutines inside the tasks, want at most %d (%d before the call)",
				workers, peak.Load(), limit, before)
		}
	}
}

func TestDoSerialPreservesOrder(t *testing.T) {
	var order []int
	var tasks []func()
	for i := 0; i < 10; i++ {
		tasks = append(tasks, func() { order = append(order, i) })
	}
	Do(1, tasks)
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order = %v", order)
		}
	}
}

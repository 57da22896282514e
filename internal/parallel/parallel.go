// Package parallel provides the bounded worker pool used to fan independent
// deterministic tasks (experiments, protocol runs) across goroutines.
//
// Tasks must be mutually independent: each may only write state it owns
// (typically one slot of a results slice). Determinism then follows from the
// fixed task list — execution order does not matter, only the slot each task
// fills.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Normalize resolves a parallelism request: values <= 0 mean "one worker per
// available CPU" (runtime.GOMAXPROCS(0)).
func Normalize(parallelism int) int {
	if parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return parallelism
}

// Do runs every task, using at most parallelism concurrent workers
// (Normalize applies). The calling goroutine is one of the workers: it and
// at most parallelism-1 goroutines started for the call claim tasks in list
// order from one atomic cursor until none is left, and Do returns when every
// task has. With one worker the tasks run inline, in order, on the calling
// goroutine — the serial path stays allocation- and goroutine-free.
func Do(parallelism int, tasks []func()) {
	parallelism = Normalize(parallelism)
	if parallelism > len(tasks) {
		parallelism = len(tasks)
	}
	if parallelism <= 1 {
		for _, t := range tasks {
			t()
		}
		return
	}
	var next atomic.Int64
	work := func() {
		for i := next.Add(1) - 1; i < int64(len(tasks)); i = next.Add(1) - 1 {
			tasks[i]()
		}
	}
	var wg sync.WaitGroup
	wg.Add(parallelism - 1)
	for w := 1; w < parallelism; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

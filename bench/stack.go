package main

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/pgstate"
	"repro/internal/policy"
	"repro/internal/routeserver"
	"repro/internal/routeserver/daemon"
	"repro/internal/synthesis"
)

// nconns is the number of client connections of every socket workload,
// one generator goroutine each: min(nproc, 4).
func nconns() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

// stack is the real serving stack of one workload, in-process: strategy →
// routeserver.Server → daemon.Backend → daemon.Daemon on a TCP loopback
// listener. Each workload builds and tears down its own, so workloads
// cannot warm each other.
type stack struct {
	in  *inputs
	srv *routeserver.Server
	be  *daemon.Backend
	d   *daemon.Daemon
	ln  net.Listener
	// serving waits for the accept loop and, in a traced stack, for every
	// ServeConn goroutine the loop started.
	serving sync.WaitGroup
	// direct counts queries issued through be.Query rather than a socket
	// (warming, probes), for the counter reconciliation.
	direct uint64
	// precompute is the time NewHybrid spent building its hot table.
	precompute time.Duration
	// bytesPerEntry is the heap the warm-up added per cached route (traced
	// stacks only: it costs two forced collections).
	bytesPerEntry float64
	// links is the graph's link count before any control mutation.
	links int
	// capacity is the cache capacity in entries.
	capacity int
}

// buildStack builds and warms the stack and starts listening. With a
// tracer the strategy is wrapped and accepted connections are handed to
// ServeConn through a frame-scanning conn; without one the program runs
// exactly as routed would run it (Daemon.Serve on the listener).
func buildStack(w workload, in *inputs, sz sizing, tr *tracer) (*stack, error) {
	st := &stack{in: in, links: in.g.NumLinks()}
	var strat synthesis.Strategy
	if w.hybrid {
		hot := in.hotSet(sz.hotKeys)
		t0 := time.Now()
		strat = synthesis.NewHybrid(in.g, in.db, hot)
		st.precompute = time.Since(t0)
	} else {
		strat = synthesis.NewOnDemand(in.g, in.db)
	}
	if tr != nil {
		strat = tr.wrapStrategy(strat)
	}
	cfg := routeserver.Config{Capacity: 1 << 16} // the server's own default, spelled out for the probes
	if w.smallCache {
		cfg.Capacity = sz.missCapacity
	}
	st.capacity = cfg.Capacity
	st.srv = routeserver.New(strat, cfg)
	dp, err := routeserver.NewDataPlane(pgstate.Config{Kind: pgstate.Hard})
	if err != nil {
		return nil, fmt.Errorf("data plane: %w", err)
	}
	st.be = daemon.NewBackend(st.srv, dp, in.g, in.db)
	st.d = daemon.New(st.be, daemon.Config{})

	warm := in.keys
	if w.smallCache {
		// More keys than the cache holds: replay the tape's tail, a
		// quarter more requests than the capacity, so every shard is full
		// and evicting before the first timed request.
		n := cfg.Capacity + cfg.Capacity/4
		if n > len(in.tape) {
			n = len(in.tape)
		}
		warm = in.tape[len(in.tape)-n:]
	}
	var before uint64
	if tr != nil {
		before = heapAfterGC()
	}
	st.queryAll(warm)
	if n := st.srv.CacheLen(); tr != nil && n > 0 {
		st.bytesPerEntry = (float64(heapAfterGC()) - float64(before)) / float64(n)
	}

	st.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	st.serving.Add(1)
	go func() {
		defer st.serving.Done()
		if tr == nil {
			_ = st.d.Serve(st.ln) // returns nil on drain; an accept error ends the run through the generators' own errors
			return
		}
		for {
			conn, err := st.ln.Accept()
			if err != nil {
				return
			}
			st.serving.Add(1)
			go func() {
				defer st.serving.Done()
				st.d.ServeConn(tr.wrapConn(conn))
			}()
		}
	}()
	return st, nil
}

// onEveryCPU calls fn(0) … fn(n-1), spread over one goroutine per CPU,
// and returns when all have returned.
func onEveryCPU(n int, fn func(i int)) {
	workers := runtime.NumCPU()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				fn(i)
			}
		}(w)
	}
	wg.Wait()
}

// queryAll answers reqs through Backend.Query from one goroutine per CPU.
func (st *stack) queryAll(reqs []policy.Request) {
	onEveryCPU(len(reqs), func(i int) { st.be.Query(reqs[i]) })
	st.direct += uint64(len(reqs))
}

// heapAfterGC forces two collections (a sync.Pool's contents survive one)
// and returns the live heap.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// mutatePair fails lateral link n (mod their number) and restores it,
// calling the backend directly, and returns how long each took.
func (st *stack) mutatePair(n int) (fail, restore time.Duration, err error) {
	l := st.in.laterals[n%len(st.in.laterals)]
	t0 := time.Now()
	_, _, _, err = st.be.Fail(l.A, l.B)
	fail = time.Since(t0)
	if err != nil {
		return fail, 0, err
	}
	t0 = time.Now()
	_, _, err = st.be.Restore(l.A, l.B)
	return fail, time.Since(t0), err
}

func (st *stack) addr() string { return st.ln.Addr().String() }

// close drains the daemon — stop accepting, flush, close every session —
// and waits for the accept loop and every session goroutine to end.
func (st *stack) close() {
	st.d.Drain()
	st.ln.Close() // Drain closes only a listener handed to Serve; the traced accept loop owns its own
	st.serving.Wait()
}

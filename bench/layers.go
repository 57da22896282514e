package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/ad"
	"repro/internal/cache"
	"repro/internal/policy"
	"repro/internal/routeserver"
	"repro/internal/wire"
)

// The per-layer probes of a traced run. Every one times calls into a
// layer's exported functions from outside, on the stack and tape of the
// workload being traced, after its timed phase: the numbers are that
// layer's cost alone, so the end-to-end gap is attributed by subtraction.

// perOp calls fn in batches until d has passed and returns the median,
// over batches, of the mean nanoseconds per call.
func perOp(d time.Duration, fn func(i int)) float64 {
	const batch = 2048
	var means []float64
	i := 0
	for deadline := time.Now().Add(d); len(means) < 3 || time.Now().Before(deadline); {
		t0 := time.Now()
		for end := i + batch; i < end; i++ {
			fn(i)
		}
		means = append(means, float64(time.Since(t0))/batch)
	}
	return median(means)
}

// allocsPer returns the heap allocations and bytes per call of fn.
func allocsPer(n int, fn func(i int)) (allocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

// ringPhase drives Backend.Query in-process from one goroutine per CPU
// over the workload's tape, with the wrappers recording: each query is a
// backend.query root, and the synthesis spans it causes are its children,
// attributed by request key. A miss's self time — its span minus its
// children — is what routeserver itself spends on a miss: singleflight,
// the strategy lock, insert, index upkeep, eviction. On churn the control
// mutations are called directly beside the ring.
func ringPhase(st *stack, tr *tracer, cfg runConfig, control bool, m metricSet) {
	tr.ring.Store(true)
	tr.on.Store(true)
	defer tr.on.Store(false)

	var (
		mu       sync.Mutex
		missSelf samples
		queries  uint64
		wg       sync.WaitGroup
		stop     = make(chan struct{})
	)
	workers := runtime.NumCPU()
	tape := st.in.tape
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(pos int) {
			defer wg.Done()
			var self samples
			n := uint64(0)
			for {
				select {
				case <-stop:
					mu.Lock()
					missSelf = append(missSelf, self...)
					queries += n
					mu.Unlock()
					return
				default:
				}
				req := tape[pos]
				if pos++; pos == len(tape) {
					pos = 0
				}
				key := routeserver.KeyOf(req)
				root := &ringRoot{id: tr.ids.Add(1)}
				_, taken := tr.inflight.LoadOrStore(key, root)
				start := tr.now()
				st.be.Query(req)
				end := tr.now()
				n++
				if !taken {
					tr.inflight.CompareAndDelete(key, root)
				}
				children := root.childNs.Load()
				if children > 0 {
					self.add(time.Duration(end - start - children))
				}
				if children > 0 || sampled(root.id) {
					tr.add(span{Name: spanBackendQuery, ID: root.id, Req: root.id, Start: start, End: end})
				}
			}
		}(i * len(tape) / workers)
	}
	var fail, restore samples
	deadline := time.Now().Add(2 * cfg.sz.probe)
	for n := 0; time.Now().Before(deadline); n++ {
		if control {
			if f, r, err := st.mutatePair(n); err == nil {
				fail.add(f)
				restore.add(r)
			}
		}
		time.Sleep(cfg.sz.ctlInterval)
	}
	close(stop)
	wg.Wait()
	st.direct += queries

	slices.Sort(missSelf)
	slices.Sort(fail)
	slices.Sort(restore)
	m.emit("routeserver.miss_self_us", percentile(missSelf, 0.5)/1e3)
	if control {
		m.emit("backend.ctl_fail_us", percentile(fail, 0.5)/1e3)
		m.emit("backend.ctl_restore_us", percentile(restore, 0.5)/1e3)
	}
}

// probeLayers runs the direct-call probes and the transport ladder.
func probeLayers(st *stack, cfg runConfig, churnDials samples, m metricSet, res *result) {
	d := cfg.sz.probe
	// The warm tape: the head of the workload's tape — no more of it than
	// a quarter of the cache — answered once, so that every probe below is
	// a cache hit whatever the workload was.
	warm := st.in.tape[:min(4096, len(st.in.tape), st.capacity/4)]
	replies := make([]*wire.QueryReply, len(warm))
	for i, req := range warm {
		r := st.be.Query(req)
		replies[i] = &wire.QueryReply{ID: uint64(i), Found: r.Found, Path: r.Path}
	}
	st.direct += uint64(len(warm))

	// wire: the four codec calls of one round trip.
	queries := make([]*wire.Query, len(warm))
	qBytes := make([][]byte, len(warm))
	rBytes := make([][]byte, len(warm))
	var qLen, rLen int
	for i, req := range warm {
		queries[i] = &wire.Query{ID: uint64(i), Req: req}
		qBytes[i], rBytes[i] = wire.Marshal(queries[i]), wire.Marshal(replies[i])
		qLen += len(qBytes[i])
		rLen += len(rBytes[i])
	}
	n := len(warm)
	var sink int
	qm := perOp(d/4, func(i int) { sink += len(wire.Marshal(queries[i%n])) })
	rm := perOp(d/4, func(i int) { sink += len(wire.Marshal(replies[i%n])) })
	decode := func(b []byte) {
		if _, err := wire.Unmarshal(b); err != nil {
			sink--
		}
	}
	qu := perOp(d/4, func(i int) { decode(qBytes[i%n]) })
	ru := perOp(d/4, func(i int) { decode(rBytes[i%n]) })
	allocs, bytes := allocsPer(n, func(i int) {
		decode(wire.Marshal(queries[i]))
		decode(wire.Marshal(replies[i]))
	})
	if sink == -1 {
		res.problem("wire: every decode failed")
	}
	m.emit("wire.query_marshal_ns", qm)
	m.emit("wire.query_unmarshal_ns", qu)
	m.emit("wire.reply_marshal_ns", rm)
	m.emit("wire.reply_unmarshal_ns", ru)
	m.emit("wire.allocs_per_roundtrip", allocs)
	m.emit("wire.alloc_bytes_per_roundtrip", bytes)
	m.emit("wire.query_frame_bytes", float64(qLen)/float64(n))
	m.emit("wire.reply_frame_bytes", float64(rLen)/float64(n))

	// backend, routeserver: one warm query, called directly.
	backendNs := perOp(d, func(i int) { st.be.Query(warm[i%n]) })
	hitNs := perOp(d, func(i int) { st.srv.Query(warm[i%n]) })
	hitAllocs, _ := allocsPer(n, func(i int) { st.srv.Query(warm[i]) })
	par := make([]float64, runtime.NumCPU())
	var wg sync.WaitGroup
	for g := range par {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			par[g] = perOp(d, func(i int) { st.srv.Query(warm[(i+g*977)%n]) })
		}(g)
	}
	wg.Wait()
	m.emit("backend.query_ns", backendNs)
	m.emit("routeserver.query_hit_ns", hitNs)
	m.emit("routeserver.query_hit_par_ns", median(par))
	m.emit("routeserver.hit_allocs", hitAllocs)

	// cache: the LRU alone, at the capacity of one server shard, holding
	// the server's key type and an entry the size of the server's own.
	const lruCap = 4096
	lru := cache.NewLRU[routeserver.Key, routeserver.CacheEntry](lruCap)
	keyAt := func(i int) routeserver.Key { return routeserver.Key{Src: ad.ID(i), Dst: ad.ID(i >> 20), Hour: 12} }
	for i := 0; i < lruCap; i++ {
		lru.Put(keyAt(i), routeserver.CacheEntry{Key: keyAt(i)})
	}
	m.emit("cache.get_ns", perOp(d/2, func(i int) { lru.Get(keyAt(i % lruCap)) }))
	next := lruCap
	m.emit("cache.put_evict_ns", perOp(d/2, func(int) {
		lru.Put(keyAt(next), routeserver.CacheEntry{Key: keyAt(next)})
		next++
	}))

	// daemon: the same warm queries through each transport, one
	// connection. The listeners here are the ladder's own and hand plain
	// conns to ServeConn: no wrapper sits on a rung.
	rung := func(cc *clientConn, depth int) (p50us, perReqUs float64) {
		lat, took, err := ladderLoad(cc, depth, warm, d)
		if err != nil {
			res.Failed++
			res.problem("ladder: %v", err)
			return 0, 0
		}
		st.direct += uint64(len(lat))
		slices.Sort(lat)
		return percentile(lat, 0.5) / 1e3, float64(took.Microseconds()) / float64(len(lat))
	}

	c1, c2 := net.Pipe()
	var served sync.WaitGroup
	served.Add(1)
	go func() { defer served.Done(); st.d.ServeConn(c2) }()
	pipeCC := newClientConn(c1)
	pipeRTT, _ := rung(pipeCC, 1)
	pipeCC.close()
	served.Wait()

	var unixRTT, tcpRTT, d8, d64 float64
	var setup, dials samples
	dir, err := os.MkdirTemp("", "bench-sock-")
	if err != nil {
		res.problem("ladder: %v", err)
	} else {
		defer os.RemoveAll(dir)
		if err := withListener(st, "unix", filepath.Join(dir, "s"), func(network, addr string) error {
			cc, err := dial(network, addr)
			if err != nil {
				return err
			}
			defer cc.close()
			unixRTT, _ = rung(cc, 1)
			return nil
		}); err != nil {
			res.problem("ladder: %v", err)
		}
	}
	if err := withListener(st, "tcp", "127.0.0.1:0", func(network, addr string) error {
		for _, depth := range []int{1, 8, 64} {
			cc, err := dial(network, addr)
			if err != nil {
				return err
			}
			p50, perReq := rung(cc, depth)
			cc.close()
			switch depth {
			case 1:
				tcpRTT = p50
			case 8:
				d8 = perReq
			case 64:
				d64 = perReq
			}
		}
		// Session set-up: dial, one round trip, close.
		for deadline := time.Now().Add(d); time.Now().Before(deadline); {
			t0 := time.Now()
			cc, err := dial(network, addr)
			if err != nil {
				return err
			}
			t1 := time.Now()
			_, err = cc.roundTrip(queries[len(setup)%n])
			t2 := time.Now()
			cc.close()
			if err != nil {
				return err
			}
			st.direct++
			dials.add(t1.Sub(t0))
			setup.add(t2.Sub(t0))
		}
		return nil
	}); err != nil {
		res.problem("ladder: %v", err)
	}
	slices.Sort(setup)
	slices.Sort(dials)
	if len(churnDials) > 0 {
		dials = churnDials // the workload's own redials, already sorted
	}

	wireUs := (qm + qu + rm + ru) / 1e3
	m.emit("daemon.pipe_rtt_us", pipeRTT)
	m.emit("daemon.unix_rtt_us", unixRTT)
	m.emit("daemon.tcp_rtt_us", tcpRTT)
	m.emit("daemon.tcp_d8_us_per_req", d8)
	m.emit("daemon.tcp_d64_us_per_req", d64)
	m.emit("daemon.self_us", pipeRTT-backendNs/1e3-wireUs)
	m.emit("daemon.session_setup_us", percentile(setup, 0.5)/1e3-tcpRTT)
	m.emit("client.dial_p50_us", percentile(dials, 0.5)/1e3)
}

// withListener serves the stack's daemon on a listener of its own for the
// duration of fn, then closes it and waits for its sessions to end.
func withListener(st *stack, network, addr string, fn func(network, addr string) error) error {
	ln, err := net.Listen(network, addr)
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() { defer wg.Done(); st.d.ServeConn(conn) }()
		}
	}()
	err = fn(network, ln.Addr().String())
	ln.Close()
	wg.Wait() // fn closed its connections, so every session has seen EOF
	return err
}

// ladderLoad keeps depth warm queries outstanding on cc for d and returns
// every round trip and the time they took in all.
func ladderLoad(cc *clientConn, depth int, warm []policy.Request, d time.Duration) (samples, time.Duration, error) {
	var lat samples
	sentAt := make([]time.Time, 0, depth)
	q := &wire.Query{}
	next := uint64(0)
	start := time.Now()
	deadline := start.Add(d)
	for {
		stopping := !time.Now().Before(deadline)
		if stopping && len(sentAt) == 0 {
			return lat, time.Since(start), nil
		}
		for !stopping && len(sentAt) < depth {
			q.ID, q.Req = next, warm[next%uint64(len(warm))]
			next++
			sentAt = append(sentAt, time.Now())
			if err := wire.WriteMessage(cc.bw, q); err != nil {
				return nil, 0, err
			}
		}
		if cc.bw.Buffered() > 0 && cc.br.Buffered() == 0 {
			if err := cc.bw.Flush(); err != nil {
				return nil, 0, err
			}
		}
		m, err := wire.ReadMessage(cc.br)
		if err != nil {
			return nil, 0, err
		}
		want := next - uint64(len(sentAt))
		if rep, ok := m.(*wire.QueryReply); !ok || rep.ID != want {
			return nil, 0, fmt.Errorf("request %d answered by %v", want, m.Type())
		}
		lat.add(time.Since(sentAt[0]))
		sentAt = sentAt[:copy(sentAt, sentAt[1:])]
	}
}

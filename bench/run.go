package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/routeserver"
	"repro/internal/synthesis"
)

// runConfig is one invocation: which seed, how long, traced or not.
type runConfig struct {
	seed int64
	// measure is the length of the timed phase. A traced run measures
	// half of it, in alternating untraced and traced windows.
	measure time.Duration
	trace   bool
	// spans, when set, is the file a traced run writes its spans to.
	spans string
	sz    sizing
}

// result is what one run of one workload reports.
type result struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Correct   bool      `json:"correct"`
	Attempted uint64    `json:"attempted"`
	Failed    uint64    `json:"failed"`
	Metrics   metricSet `json:"metrics"`
	// problems lists what made the run incorrect, for stderr.
	problems []string
}

func (r *result) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// cpuTime is the process's user+system CPU so far: server and generator
// alike, since they share the process.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// windowStat is one timed window: its length, the process CPU it used,
// and the round trips that completed in it — how many, and their median
// and 90th percentile in nanoseconds. lat keeps them all, sorted, only in
// a traced run, which pools them for the tail percentiles.
type windowStat struct {
	dur      time.Duration
	cpu      time.Duration
	traced   bool
	n        int
	p50, p90 float64
	lat      samples
}

func (w *windowStat) take(lat samples, keep bool) {
	w.n, w.p50, w.p90 = len(lat), percentile(lat, 0.50), percentile(lat, 0.90)
	if keep {
		w.lat = lat
	}
}

func (w windowStat) qps() float64       { return float64(w.n) / w.dur.Seconds() }
func (w windowStat) cpuPerReq() float64 { return float64(w.cpu.Microseconds()) / float64(w.n) }

// procDelta is the runtime's own accounting over the timed phase.
type procDelta struct {
	mallocs, bytes uint64
	gcCycles       uint32
	gcPause        time.Duration
	heapPeak       uint64
}

// timedPhase runs the generators (and the controller, if any) through the
// warm-up window and the timed windows, then stops them and waits. Window
// boundaries are the coordinator's own clock readings, so a late wake-up
// lengthens one window and shortens no measurement. A traced run
// alternates untraced and traced windows on the one stack, and reads the
// runtime's memory statistics at each boundary (a brief stop-the-world an
// untraced run does not pay).
func timedPhase(cfg runConfig, clk *clock, gens []*generator, ctl *controller, tr *tracer) ([]windowStat, procDelta) {
	nwin := cfg.sz.windows
	measure := cfg.measure
	if tr != nil {
		measure /= 2
	}
	winDur := measure / time.Duration(nwin)
	stats := make([]windowStat, nwin)
	perWin := make([][]samples, nwin) // window -> one buffer per generator

	var wg sync.WaitGroup
	for _, g := range gens {
		wg.Add(1)
		go func(g *generator) { defer wg.Done(); g.run() }(g)
	}
	if ctl != nil {
		wg.Add(1)
		go func() { defer wg.Done(); ctl.run() }()
	}

	// collect takes every finished buffer the generators have handed
	// over; a window all of them have reported is merged and sorted, and
	// its buffers go back for reuse.
	open := make([]bool, len(gens))
	for i := range open {
		open[i] = true
	}
	collect := func() {
		for i, g := range gens {
			for open[i] {
				select {
				case wb, ok := <-g.done:
					if !ok {
						open[i] = false
						continue
					}
					perWin[wb.window] = append(perWin[wb.window], wb.lat)
					if len(perWin[wb.window]) == len(gens) {
						stats[wb.window].take(mergeSorted(perWin[wb.window], gens), tr != nil)
						perWin[wb.window] = nil
					}
					continue
				default:
				}
				break
			}
		}
	}

	var pd procDelta
	var ms runtime.MemStats
	readMem := func() {
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > pd.heapPeak {
			pd.heapPeak = ms.HeapAlloc
		}
	}

	time.Sleep(cfg.sz.warm)
	var startMallocs, startBytes uint64
	var startGC uint32
	var startPause uint64
	if tr != nil {
		readMem()
		startMallocs, startBytes, startGC, startPause = ms.Mallocs, ms.TotalAlloc, ms.NumGC, ms.PauseTotalNs
	}
	t0, c0 := time.Now(), cpuTime()
	for w := 0; w < nwin; w++ {
		traced := tr != nil && w%2 == 1
		if tr != nil {
			tr.on.Store(traced)
		}
		clk.window.Store(int32(w))
		time.Sleep(winDur)
		t1, c1 := time.Now(), cpuTime()
		stats[w].dur, stats[w].cpu, stats[w].traced = t1.Sub(t0), c1-c0, traced
		t0, c0 = t1, c1
		if tr != nil {
			readMem()
		}
		collect()
	}
	clk.window.Store(-1)
	if tr != nil {
		tr.on.Store(false)
		pd.mallocs, pd.bytes = ms.Mallocs-startMallocs, ms.TotalAlloc-startBytes
		pd.gcCycles, pd.gcPause = ms.NumGC-startGC, time.Duration(ms.PauseTotalNs-startPause)
	}
	clk.stop.Store(true)
	wg.Wait()
	collect()
	// A generator that died early never reported its later windows.
	for w, bufs := range perWin {
		if bufs != nil {
			stats[w].take(mergeSorted(bufs, nil), tr != nil)
		}
	}
	return stats, pd
}

// ctlMedian is the control round trip in microseconds: the mean of the
// median fail and the median restore. The two mutations cost differently
// (a restore evicts every cached negative answer and, under the hybrid
// strategy, refills the hot table), so the median of the mixed population
// sits on the boundary between them and flips from run to run.
func ctlMedian(lat []ctlSample) float64 {
	var fail, restore samples
	for _, s := range lat {
		if s.restore {
			restore.add(s.d)
		} else {
			fail.add(s.d)
		}
	}
	slices.Sort(fail)
	slices.Sort(restore)
	return (percentile(fail, 0.5) + percentile(restore, 0.5)) / 2 / 1e3
}

// mergeSorted pools the generators' buffers of one window into one sorted
// array and returns the buffers to their owners.
func mergeSorted(bufs []samples, owners []*generator) samples {
	n := 0
	for _, b := range bufs {
		n += len(b)
	}
	out := make(samples, 0, n)
	for i, b := range bufs {
		out = append(out, b...)
		if owners != nil {
			select {
			case owners[i].free <- b: // any owner will do: one buffer each
			default:
			}
		}
	}
	slices.Sort(out)
	return out
}

// socketRun is what a socket workload's run leaves behind for its metrics
// to be read from.
type socketRun struct {
	st     *stack
	tr     *tracer // nil in an untraced run
	setups []float64
	// untraced and traced are the timed windows by kind; pooled is every
	// round trip of a traced run, sorted.
	untraced, traced []windowStat
	pooled           samples
	dials            samples // conn_churn's redials, sorted
	heap             uint64
	ctlP50           float64 // churn's control round trip, microseconds
	// before and during bracket the timed phase in the server's counters.
	before, during routeserver.MetricsSnapshot
	stratBefore    synthesis.StrategyStats
	proc           procDelta
}

// windows reduces one kind of window to the per-window values of f,
// leaving out a window in which nothing completed.
func windows(ws []windowStat, f func(windowStat) float64) []float64 {
	out := make([]float64, 0, len(ws))
	for _, s := range ws {
		if s.n > 0 {
			out = append(out, f(s))
		}
	}
	return out
}

func p50Of(s windowStat) float64 { return s.p50 }
func p90Of(s windowStat) float64 { return s.p90 }

// runSocket runs one socket workload: set-up (repeated, the last one
// kept), the timed phase, validation off the timed path, the heap
// reading, churn's post-quiesce sweep, the counter reconciliation and the
// teardown.
func runSocket(w workload, cfg runConfig) (res result) {
	res = result{Workload: w.name, Metrics: metricSet{}}
	r := &socketRun{}
	if cfg.trace {
		r.tr = newTracer()
	}

	var (
		st   *stack
		gens []*generator
		ctl  *controller
		clk  *clock
	)
	closeClients := func() {
		for _, g := range gens {
			g.cc.close()
		}
		if ctl != nil {
			ctl.cc.close()
		}
	}
	for i := 0; i < cfg.sz.setups; i++ {
		if st != nil {
			closeClients()
			st.close()
		}
		t0 := time.Now()
		in := generate(cfg.seed, w, cfg.sz)
		var err error
		if st, err = buildStack(w, in, cfg.sz, r.tr); err != nil {
			res.problem("set-up: %v", err)
			return res
		}
		clk = &clock{}
		clk.window.Store(-1)
		gens, ctl = gens[:0], nil
		for id := 0; id < nconns() && err == nil; id++ {
			var g *generator
			if g, err = newGenerator(id, w, in, st.addr(), clk, r.tr); err == nil {
				gens = append(gens, g)
			}
		}
		if w.control && err == nil {
			var cc *clientConn
			if cc, err = dial("tcp", st.addr()); err == nil {
				ctl = &controller{in: in, clk: clk, cc: cc, interval: cfg.sz.ctlInterval}
			}
		}
		if err != nil {
			res.problem("set-up: %v", err)
			closeClients()
			st.close()
			return res
		}
		r.setups = append(r.setups, time.Since(t0).Seconds())
	}
	defer func() {
		closeClients()
		st.close()
	}()
	r.st = st
	in := st.in
	// The oracle judges answers against a private copy of the generated
	// state: the stack's own graph is mutated by the control connection.
	oracle := core.Oracle{G: in.g.Clone(), DB: in.db.Clone()}
	r.before, r.stratBefore = st.srv.Snapshot(), st.srv.StrategyStats()
	runtime.GC()

	stats, proc := timedPhase(cfg, clk, gens, ctl, r.tr)
	r.proc = proc

	// Everything from here on is off the timed path.
	for _, s := range stats {
		if s.traced {
			r.traced = append(r.traced, s)
		} else {
			r.untraced = append(r.untraced, s)
		}
		r.pooled = append(r.pooled, s.lat...)
	}
	slices.Sort(r.pooled)
	for _, g := range gens {
		res.Attempted += g.sent
		res.Failed += g.failed
		if g.firstErr != nil {
			res.problem("generator %d: %v", g.id, g.firstErr)
		}
		r.dials = append(r.dials, g.dials...)
	}
	slices.Sort(r.dials)
	res.Failed += validate(in, oracle, gens, !w.control, &res)

	// The heap reading: validation state dropped (an untraced run has
	// kept no samples), the stack, its sessions and the tape still live.
	for _, g := range gens {
		g.last, g.pending = nil, nil
		for len(g.free) > 0 {
			<-g.free
		}
	}
	r.heap = heapAfterGC()
	r.during = st.srv.Snapshot()

	// On churn: the control connection's own count, and then every key
	// once more with all links up, where the oracle can be asked for exact
	// agreement.
	var ctlOps uint64
	if w.control {
		res.Attempted += ctl.ops
		res.Failed += ctl.failed
		if ctl.err != nil {
			res.problem("control: %v", ctl.err)
		}
		ctlOps = ctl.ops
		r.ctlP50 = ctlMedian(ctl.lat)
		sent, bad := sweep(st, oracle, &res)
		res.Attempted += sent
		res.Failed += bad
	}
	reconcile(st, res.Attempted-ctlOps, ctlOps, &res)

	if cfg.trace {
		r.perLayer(w, cfg, res.Metrics, &res)
	} else {
		r.endToEnd(res.Metrics)
	}
	res.Correct = res.Failed == 0 && len(res.problems) == 0
	return res
}

// endToEnd emits the untraced run's metrics: each the median over its
// windows.
func (r *socketRun) endToEnd(m metricSet) {
	m.emit("setup_s", median(r.setups))
	m.emit("qps", median(windows(r.untraced, windowStat.qps)))
	m.emit("p90_us", median(windows(r.untraced, p90Of))/1e3)
	m.emit("heap_mb", float64(r.heap)/1e6)
}

// perLayer emits the traced run's metrics: the per-layer table. It ends
// with the in-process ring and the direct-call probes, which go on using
// the stack.
func (r *socketRun) perLayer(w workload, cfg runConfig, m metricSet, res *result) {
	st, tr := r.st, r.tr
	qps := windows(r.untraced, windowStat.qps)
	if u := median(qps); u > 0 {
		m.emit("trace.overhead_frac", 1-median(windows(r.traced, windowStat.qps))/u)
	}
	m.emit("p50_us", median(windows(r.untraced, p50Of))/1e3)
	m.emit("cpu_us_per_req", median(windows(r.untraced, windowStat.cpuPerReq)))
	if w.control {
		m.emit("ctl_p50_us", r.ctlP50)
	}
	emitTail := func(name string, cands []float64) {
		if q, ok := tailQuantile(len(r.pooled), cands); ok {
			m.emit(name, percentile(r.pooled, q)/1e3)
		}
	}
	emitTail("client.p99_us", []float64{0.90, 0.95, 0.99})
	emitTail("client.p999_us", []float64{0.99, 0.995, 0.999})
	m.emit("client.samples", float64(len(r.pooled)))
	m.emit("client.window_spread", spread(qps))

	if n := float64(len(r.pooled)); n > 0 {
		m.emit("proc.allocs_per_req", float64(r.proc.mallocs)/n)
		m.emit("proc.alloc_bytes_per_req", float64(r.proc.bytes)/n)
	}
	m.emit("proc.gc_cycles", float64(r.proc.gcCycles))
	m.emit("proc.gc_pause_ms", float64(r.proc.gcPause.Microseconds())/1e3)
	m.emit("proc.heap_peak_mb", float64(r.proc.heapPeak)/1e6)

	// daemon: the server side of the sockets, traced windows only.
	if n := float64(tr.requests.Load()); n > 0 {
		m.emit("daemon.srv_reads_per_req", float64(tr.reads.Load())/n)
		m.emit("daemon.srv_writes_per_req", float64(tr.writes.Load())/n)
		m.emit("daemon.srv_bytes_in_per_req", float64(tr.bytesIn.Load())/n)
		m.emit("daemon.srv_bytes_out_per_req", float64(tr.bytesOut.Load())/n)
	}
	if n := tr.unmatched.Load(); n > 0 {
		res.problem("trace: %d replies could not be paired with a request", n)
	}
	tr.mu.Lock()
	serve := tr.serve
	tr.mu.Unlock()
	slices.Sort(serve)
	m.emit("daemon.serve_p50_us", percentile(serve, 0.5)/1e3)

	// routeserver and synthesis: the public counters over the timed phase,
	// and the wrapper's spans over its traced windows.
	before, during := r.before, r.during
	if dq := float64(during.Queries - before.Queries); dq > 0 {
		m.emit("routeserver.hit_ratio", float64(during.Hits-before.Hits)/dq)
		m.emit("routeserver.noroute_ratio", float64(during.Failures-before.Failures)/dq)
	}
	misses := float64(during.Misses - before.Misses)
	m.emit("routeserver.misses", misses)
	m.emit("routeserver.coalesced", float64(during.Coalesced-before.Coalesced))
	m.emit("routeserver.evictions", float64(during.Evictions-before.Evictions))
	tr.kmu.Lock()
	unique := tr.uniqueKeys
	tr.kmu.Unlock()
	if unique > 0 {
		m.emit("routeserver.synth_per_unique_key", float64(tr.routeCalls.Load())/float64(unique))
	}
	if muts := float64(during.ScopedMutations - before.ScopedMutations); muts > 0 {
		ev := float64(during.ScopedEvicted - before.ScopedEvicted)
		ret := float64(during.ScopedRetained - before.ScopedRetained)
		m.emit("routeserver.scoped_evicted_per_ctl", ev/muts)
		m.emit("routeserver.retained_ratio", ret/(ret+ev))
		m.emit("routeserver.resynth_per_ctl", misses/muts)
	}
	m.emit("routeserver.bytes_per_entry", st.bytesPerEntry)

	route := tr.durations(spanRoute, false)
	m.emit("synthesis.route_p50_us", percentile(route, 0.5)/1e3)
	m.emit("synthesis.route_p99_us", percentile(route, 0.99)/1e3)
	m.emit("synthesis.footprint_p50_us", percentile(tr.durations(spanFootprint, false), 0.5)/1e3)
	m.emit("synthesis.invalidate_scoped_us", percentile(tr.durations(spanInvalidate, false), 0.5)/1e3)
	busy, covered := tr.synthLoad()
	var tracedWall time.Duration
	for _, s := range r.traced {
		tracedWall += s.dur
	}
	if tracedWall > 0 {
		m.emit("synthesis.busy_frac", float64(busy)/(float64(tracedWall)*float64(runtime.GOMAXPROCS(0))))
	}
	if covered > 0 {
		m.emit("synthesis.overlap_mean", float64(busy)/float64(covered))
	}
	m.emit("synthesis.precompute_s", st.precompute.Seconds())
	ss := st.srv.StrategyStats()
	if dm := ss.Misses - r.stratBefore.Misses; dm > 0 {
		m.emit("synthesis.expansions_per_route", float64(ss.OnDemandExpansions-r.stratBefore.OnDemandExpansions)/float64(dm))
	}
	if n := (ss.Hits - r.stratBefore.Hits) + (ss.Misses - r.stratBefore.Misses); n > 0 {
		m.emit("synthesis.table_hit_ratio", float64(ss.Hits-r.stratBefore.Hits)/float64(n))
	}
	m.emit("synthesis.demand_entries", float64(ss.CacheEntries))
	m.emit("synthesis.demand_evictions", float64(ss.Evictions))

	dm := st.d.Metrics()
	m.emit("daemon.accepted", float64(dm.Accepted))
	m.emit("daemon.refused", float64(dm.Refused))
	m.emit("daemon.evicted_slow", float64(dm.Evicted))
	m.emit("daemon.requests", float64(dm.Requests))

	ringPhase(st, tr, cfg, w.control, m)
	probeLayers(st, cfg, r.dials, m, res)
	m.fill(perLayer)

	if cfg.spans != "" {
		if err := tr.writeSpans(cfg.spans); err != nil {
			res.problem("write spans: %v", err)
		}
	}
}

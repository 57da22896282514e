package routeserver

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/policy"
)

// Client is one load-run client. The in-process dialler (InProcess) hands
// every client the server itself; a wire dialler gives each its own
// connection (daemon.Failover), so connection counts mean something.
type Client interface {
	Query(req policy.Request) (Result, error)
	// Close drops the connection; the next Query redials.
	Close() error
	RecoveryStats() RecoveryStats
}

// RecoveryStats counts a client's connection-recovery work.
type RecoveryStats struct {
	// Redirects counts NotPrimary replies followed to a named primary.
	Redirects uint64
	// Reconnects counts redials after a connection error (dead replica,
	// refused connection, timeout).
	Reconnects uint64
	// Failures counts dial or connect attempts that did not yield a
	// usable connection.
	Failures uint64
}

// InProcess is the dialler that queries srv directly: no socket, no
// framing, nothing to recover from.
func InProcess(srv *Server) func(int) Client {
	return func(int) Client { return direct{srv} }
}

type direct struct{ srv *Server }

func (d direct) Query(req policy.Request) (Result, error) { return d.srv.Query(req), nil }
func (direct) Close() error                               { return nil }
func (direct) RecoveryStats() RecoveryStats               { return RecoveryStats{} }

// Event is one churn injection during a load run.
type Event struct {
	// After is the workload fraction (0..1) at which the event fires.
	After float64
	// Fire performs it: a Backend.Control call in process, a Control
	// round trip over the wire. Its error lands in Report.EventErrors.
	Fire func() error
}

// LoadConfig parameterizes a load run.
type LoadConfig struct {
	// Clients is the number of concurrent clients, each driven by its own
	// goroutine (default 4).
	Clients int
	// ReconnectEvery injects connection churn: each client closes its
	// connection after this many requests (0 = never).
	ReconnectEvery int
	// Events is the churn timeline, fired in order from one goroutine as
	// each event's workload fraction is reached.
	Events []Event
}

// Report summarizes a load run, as the generator observed it.
type Report struct {
	// Requests is the workload length; Served of them found a route,
	// NoRoute did not, and Errors hit connection failures that survived
	// every retry.
	Requests, Served, NoRoute, Errors int
	// Reconnects counts voluntary connection-churn closes plus failover
	// rotations off a dead replica; ReconnectFailures the dial attempts
	// that failed (refused at a connection limit, dead primary before
	// failover kicks in); Redirects the NotPrimary replies followed.
	Reconnects, ReconnectFailures, Redirects int
	// EventErrors holds one error per event that was refused or could not
	// be sent, naming its position in the timeline.
	EventErrors []error
	// MaxStall is the longest gap between consecutive successful replies
	// across all clients — the availability gap a failover opens.
	MaxStall time.Duration
	// Elapsed is the serving phase's wall-clock duration; QPS is
	// Requests/Elapsed.
	Elapsed time.Duration
	QPS     float64
	// Latency digests per-request round-trip latency (P50/P95/P99).
	Latency metrics.LatencySummary
}

// Run replays the workload from cfg.Clients concurrent clients, each
// dialled by dial — client i takes requests i, i+C, i+2C, … — with optional
// connection churn, firing cfg.Events at their workload fractions, and
// blocks until every request is answered (or has exhausted its client's
// retries) and every event has fired. In process and over the wire differ
// only in dial and in what the events' Fire closures do. Results are
// wall-clock timed; for deterministic phase-by-phase serving use ServePhase
// and mutate at the barriers yourself.
func Run(dial func(i int) Client, workload []policy.Request, cfg LoadConfig) Report {
	rep := Report{Requests: len(workload)}
	if len(workload) == 0 {
		return rep
	}
	n := cfg.Clients
	if n <= 0 {
		n = 4
	}
	if n > len(workload) {
		n = len(workload)
	}

	var (
		progress atomic.Uint64 // requests answered so far
		hist     metrics.Histogram
		// lastOK is when the latest successful reply landed, maxStall the
		// longest gap between two of them, both in ns since start.
		lastOK, maxStall atomic.Int64
		mu               sync.Mutex // guards rep's counters
	)

	// Churn driver: fire events in order as the answered-request count
	// crosses their fractions. Every request is counted whatever its
	// outcome, so the last threshold is always reached and no event is
	// dropped.
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		for i, ev := range cfg.Events {
			threshold := min(uint64(ev.After*float64(len(workload))), uint64(len(workload)))
			for progress.Load() < threshold {
				time.Sleep(100 * time.Microsecond)
			}
			if err := ev.Fire(); err != nil {
				rep.EventErrors = append(rep.EventErrors, fmt.Errorf("event %d: %w", i+1, err))
			}
		}
	}()

	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := dial(c)
			defer cl.Close()
			var served, noRoute, errs, reconnects int
			for i, sent := c, 0; i < len(workload); i, sent = i+n, sent+1 {
				if cfg.ReconnectEvery > 0 && sent > 0 && sent%cfg.ReconnectEvery == 0 {
					cl.Close()
					reconnects++
				}
				t0 := time.Now()
				res, err := cl.Query(workload[i])
				t1 := time.Now()
				hist.Observe(t1.Sub(t0))
				progress.Add(1)
				switch {
				case err != nil:
					errs++
					continue
				case res.Found:
					served++
				default:
					noRoute++
				}
				t := int64(t1.Sub(start))
				storeMax(&maxStall, t-lastOK.Load())
				storeMax(&lastOK, t)
			}
			rs := cl.RecoveryStats()
			mu.Lock()
			rep.Served += served
			rep.NoRoute += noRoute
			rep.Errors += errs
			rep.Reconnects += reconnects + int(rs.Reconnects)
			rep.ReconnectFailures += int(rs.Failures)
			rep.Redirects += int(rs.Redirects)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	rep.Elapsed = time.Since(start)
	<-churnDone

	rep.MaxStall = time.Duration(maxStall.Load())
	if rep.Elapsed > 0 {
		rep.QPS = float64(rep.Requests) / rep.Elapsed.Seconds()
	}
	rep.Latency = hist.Snapshot()
	return rep
}

// storeMax raises a to v if v is larger.
func storeMax(a *atomic.Int64, v int64) {
	for old := a.Load(); v > old && !a.CompareAndSwap(old, v); old = a.Load() {
	}
}

// ServePhase serves every request across clients concurrent goroutines and
// returns the per-request results in workload order. Because results are
// written to the slot of their request, the returned slice is independent
// of scheduling; experiments rely on this for byte-identical tables at any
// parallelism.
func ServePhase(srv *Server, workload []policy.Request, clients int) []Result {
	if clients <= 0 {
		clients = 4
	}
	results := make([]Result, len(workload))
	serveStriped(srv, workload, results, clients)
	return results
}

// serveStriped fans the workload across n client goroutines by stride.
func serveStriped(srv *Server, workload []policy.Request, results []Result, n int) {
	if n > len(workload) {
		n = len(workload)
	}
	if n <= 1 {
		for i, req := range workload {
			results[i] = srv.Query(req)
		}
		return
	}
	done := make(chan struct{})
	for c := 0; c < n; c++ {
		c := c
		go func() {
			defer func() { done <- struct{}{} }()
			for i := c; i < len(workload); i += n {
				results[i] = srv.Query(workload[i])
			}
		}()
	}
	for c := 0; c < n; c++ {
		<-done
	}
}

package routeserver

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/ad"
	"repro/internal/metrics"
	"repro/internal/pgstate"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/wire"
)

// DataPlane is the forwarding half of the serving architecture (§5.4): a
// route answered by the Server is only useful once every policy gateway on
// it holds handle state. The DataPlane keeps one pgstate.Table per AD under
// a configurable lifecycle discipline (§6), installs served routes into
// them, forwards data hop by hop, expires or evicts state per discipline,
// and re-establishes flows through the Server after misses or link
// failures.
//
// Time is a logical clock advanced by Tick — the serving layer has no
// discrete-event engine, so soft-state TTLs are measured in ticks of
// simulated time, while re-setup latency (a Server query plus re-install)
// is measured in wall time.
//
// The tables themselves are internally sharded and safe for concurrent
// use (Lookup and Peek return entries by value, so no caller ever holds a
// pointer into a table); d.mu remains, but only to keep the flow and
// repair maps coherent with the per-hop state transitions around them,
// not to serialize table access.
type DataPlane struct {
	mu     sync.Mutex
	cfg    pgstate.Config
	tables map[ad.ID]*pgstate.Table
	now    sim.Time

	handleSeq uint64
	flows     map[uint64]Flow
	repair    map[uint64]policy.Request

	refreshBytes uint64
	naks         uint64
	resetups     uint64
	resetupLat   metrics.Histogram
}

// Flow is one live source intent: the request it serves and the route its
// handle state was installed along.
type Flow struct {
	Req  policy.Request
	Path ad.Path
}

// SendResult reports one data forwarding attempt.
type SendResult struct {
	// Delivered is true when every hop held state for the handle.
	Delivered bool
	// MissAt names the first PG without state (zero when delivered). The
	// flow is dead afterwards and queued for repair, mirroring the
	// SetupNoState NAK of the simulated protocol.
	MissAt ad.ID
}

// DataPlaneMetrics is a point-in-time copy of the data plane's counters.
type DataPlaneMetrics struct {
	// State sums the per-AD handle-table counters.
	State pgstate.Stats
	// MaxPeak is the largest single-AD resident peak — the per-gateway
	// memory bound the §6 disciplines trade against availability.
	MaxPeak int
	// Flows counts live source intents.
	Flows int
	// PendingRepairs counts flows awaiting Repair.
	PendingRepairs int
	// RefreshBytes is the wire volume of soft-state keepalives.
	RefreshBytes uint64
	// NAKs counts forwarding attempts that hit missing state.
	NAKs uint64
	// Resetups counts successful flow re-establishments.
	Resetups uint64
	// ResetupLatency digests the wall time of each re-establishment.
	ResetupLatency metrics.LatencySummary
}

// NewDataPlane builds an empty data plane under the given state discipline.
func NewDataPlane(cfg pgstate.Config) (*DataPlane, error) {
	norm, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	return &DataPlane{
		cfg:    norm,
		tables: make(map[ad.ID]*pgstate.Table),
		flows:  make(map[uint64]Flow),
		repair: make(map[uint64]policy.Request),
	}, nil
}

// table returns id's handle table, creating it on first use.
func (d *DataPlane) table(id ad.ID) *pgstate.Table {
	t, ok := d.tables[id]
	if !ok {
		t = pgstate.NewTable(d.cfg)
		d.tables[id] = t
	}
	return t
}

// Now returns the logical clock.
func (d *DataPlane) Now() sim.Time {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.now
}

// Install writes handle state for a served route into every AD along it
// and registers the source intent. Single-AD paths need no state.
func (d *DataPlane) Install(req policy.Request, path ad.Path) (handle uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.install(req, path)
}

func (d *DataPlane) install(req policy.Request, path ad.Path) uint64 {
	d.handleSeq++
	h := d.handleSeq
	for i, id := range path {
		d.table(id).Install(d.now, h, path, i, req, d.cfg.TTL)
	}
	d.flows[h] = Flow{Req: req, Path: path}
	return h
}

// Flow returns the live intent for handle.
func (d *DataPlane) Flow(handle uint64) (Flow, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.flows[handle]
	return f, ok
}

// Handles lists live flow handles in ascending order.
func (d *DataPlane) Handles() []uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	hs := make([]uint64, 0, len(d.flows))
	for h := range d.flows {
		hs = append(hs, h)
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
	return hs
}

// Send forwards one data packet over handle, hop by hop. The first PG
// without state NAKs: upstream state is torn down, the flow dies, and the
// request is queued for Repair — evicted or expired state is re-established
// on demand instead of silently blackholing.
func (d *DataPlane) Send(handle uint64) SendResult {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.flows[handle]
	if !ok {
		return SendResult{}
	}
	for i, id := range f.Path {
		if _, ok := d.table(id).Lookup(d.now, handle); !ok {
			d.naks++
			for j := 0; j < i; j++ {
				d.table(f.Path[j]).Remove(handle)
			}
			delete(d.flows, handle)
			d.repair[handle] = f.Req
			return SendResult{MissAt: id}
		}
	}
	return SendResult{Delivered: true}
}

// Tick advances the logical clock by d and sweeps expired soft state in AD
// order. A flow whose source entry expired was abandoned (the source
// stopped refreshing): it dies without being queued for repair.
func (d *DataPlane) Tick(dt sim.Time) (expired int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.now += dt
	for _, id := range d.sortedADs() {
		due := d.tables[id].ExpireDue(d.now)
		expired += len(due)
		for _, h := range due {
			if f, ok := d.flows[h]; ok && f.Path.Source() == id {
				delete(d.flows, h)
			}
		}
	}
	return expired
}

// RefreshAll re-asserts every live flow: each hop's entry is refreshed (and
// its recency touched), with the keepalive's wire bytes counted per hop. A
// hop that already dropped the state NAKs; the flow dies and is queued for
// Repair.
func (d *DataPlane) RefreshAll() (refreshed, failed int) {
	ttlMillis := uint32(0)
	if d.cfg.Kind == pgstate.Soft {
		ttlMillis = uint32(d.cfg.TTL / sim.Millisecond)
	}
	// A Refresh frame is fixed-width: its size does not depend on the handle.
	pktLen := uint64(len(wire.Marshal(&wire.Refresh{TTLMillis: ttlMillis})))
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, h := range d.sortedFlows() {
		f := d.flows[h]
		ok := true
		for i, id := range f.Path {
			if !d.table(id).Refresh(d.now, h, d.cfg.TTL) {
				d.naks++
				for j := 0; j < i; j++ {
					d.table(f.Path[j]).Remove(h)
				}
				delete(d.flows, h)
				d.repair[h] = f.Req
				ok = false
				break
			}
			if i > 0 {
				d.refreshBytes += pktLen // one keepalive per traversed link
			}
		}
		if ok {
			refreshed++
		} else {
			failed++
		}
	}
	return refreshed, failed
}

// InvalidateLink flushes every entry whose route crosses the a-b adjacency,
// in AD then handle order — the eager failure-driven invalidation of the
// simulated protocol's LinkDown path. Affected flows are queued for Repair.
// Each table resolves its dependents through its link index, so the cost
// scales with the flows actually crossing the link, not with total state.
func (d *DataPlane) InvalidateLink(a, b ad.ID) (flushed int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, id := range d.sortedADs() {
		t := d.tables[id]
		for _, h := range t.HandlesCrossing(a, b) {
			if _, ok := t.Peek(d.now, h); !ok {
				continue
			}
			t.Remove(h)
			flushed++
			if f, ok := d.flows[h]; ok && f.Path.Source() == id {
				delete(d.flows, h)
				d.repair[h] = f.Req
			}
		}
	}
	return flushed
}

// FlowsCrossing lists, in ascending handle order, the live flows that
// InvalidateLink(a, b) would tear down and queue for repair. It mirrors
// the teardown condition exactly — a flow dies when its *source* AD's
// table still holds a live entry whose route crosses the a-b adjacency —
// resolved through the same per-table link indexes, so the cost scales
// with the flows actually crossing the link. It is the read-only half of
// the eager failure-driven teardown; the what-if plan engine uses it to
// predict data-plane blast radius without touching any state.
func (d *DataPlane) FlowsCrossing(a, b ad.ID) []uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]uint64, 0)
	for _, id := range d.sortedADs() {
		t := d.tables[id]
		for _, h := range t.HandlesCrossing(a, b) {
			if _, ok := t.Peek(d.now, h); !ok {
				continue
			}
			if f, ok := d.flows[h]; ok && f.Path.Source() == id {
				out = append(out, h)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Repair re-establishes every queued flow through srv, in handle order:
// query a fresh route (the server's cache reflects post-failure topology
// after its own invalidation) and install it under a new handle. Wall time
// per successful repair is recorded in the re-setup latency histogram.
func (d *DataPlane) Repair(srv *Server) (attempted, repaired int) {
	d.mu.Lock()
	handles := make([]uint64, 0, len(d.repair))
	for h := range d.repair {
		handles = append(handles, h)
	}
	sort.Slice(handles, func(i, j int) bool { return handles[i] < handles[j] })
	reqs := make([]policy.Request, len(handles))
	for i, h := range handles {
		reqs[i] = d.repair[h]
		delete(d.repair, h)
	}
	d.mu.Unlock()

	for _, req := range reqs {
		attempted++
		start := time.Now()
		res := srv.Query(req) // outside d.mu: queries may block on synthesis
		if !res.Found {
			continue
		}
		d.mu.Lock()
		d.install(req, res.Path)
		d.resetups++
		d.resetupLat.Observe(time.Since(start))
		d.mu.Unlock()
		repaired++
	}
	return attempted, repaired
}

// Metrics returns a snapshot of the data plane's counters.
func (d *DataPlane) Metrics() DataPlaneMetrics {
	d.mu.Lock()
	defer d.mu.Unlock()
	m := DataPlaneMetrics{
		Flows:          len(d.flows),
		PendingRepairs: len(d.repair),
		RefreshBytes:   d.refreshBytes,
		NAKs:           d.naks,
		Resetups:       d.resetups,
		ResetupLatency: d.resetupLat.Snapshot(),
	}
	for _, t := range d.tables {
		st := t.Stats()
		m.State.Add(st)
		if st.Peak > m.MaxPeak {
			m.MaxPeak = st.Peak
		}
	}
	return m
}

// String summarizes the data plane for the routed CLI's "state" command.
func (m DataPlaneMetrics) String() string {
	return fmt.Sprintf(
		"flows %d, pending-repairs %d | state: %d resident (peak/PG %d), %d installs, %d evictions, %d expirations | %d refreshes (%d B), %d naks, %d resetups (p95 %v)",
		m.Flows, m.PendingRepairs, m.State.Resident, m.MaxPeak, m.State.Installs,
		m.State.Evictions, m.State.Expirations, m.State.Refreshes, m.RefreshBytes,
		m.NAKs, m.Resetups, m.ResetupLatency.P95)
}

// sortedADs lists the ADs holding tables in ascending order.
func (d *DataPlane) sortedADs() []ad.ID {
	ids := make([]ad.ID, 0, len(d.tables))
	for id := range d.tables {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// sortedFlows lists live flow handles in ascending order.
func (d *DataPlane) sortedFlows() []uint64 {
	hs := make([]uint64, 0, len(d.flows))
	for h := range d.flows {
		hs = append(hs, h)
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
	return hs
}

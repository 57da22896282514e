package routeserver

import (
	"fmt"
	"slices"
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
// a configurable lifecycle discipline (§6) and installs served routes into
// them. Every handle event after that — a data or refresh packet, the NAK
// or teardown it sets off, a link failure, a policy change, expiry — goes
// through pgstate.Gateway's rules, the ones ORWG's simulated gateways run:
// where ORWG sends a rule's action as a message, the DataPlane applies it
// at once: what the action sends arrives at the next gateway there and
// then. A flow whose NAK reaches its source fails and is queued for Repair,
// which re-establishes it through the Server.
//
// One operation's rules run as a walk, which takes entries out of an
// overlay, not out of the tables; the operation commits the walk at its
// end. Predict, the plan engine's view of a batch of control ops, is the
// same walk left uncommitted, so a prediction cannot drift from the ops it
// predicts.
//
// Time is a logical clock advanced by Tick — the serving layer has no
// discrete-event engine, so soft-state TTLs are measured in ticks of
// simulated time, while re-setup latency (a Server query plus re-install)
// is measured in wall time.
//
// d.mu guards everything: the tables map, the flow, repair and failed-link
// maps, and every call into a table, so an operation's walk and its commit
// are one step. (A table has a lock of its own, which here is never
// contended.) Only Repair's route queries run outside d.mu.
type DataPlane struct {
	mu     sync.Mutex
	cfg    pgstate.Config
	tables map[ad.ID]*pgstate.Table
	now    sim.Time
	// down holds the links a control op failed and none restored: a packet
	// sent over one is lost, as on ORWG's simulated network.
	down map[[2]ad.ID]bool

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
	// MissAt names the PG whose SetupNoState NAK the packet set off (zero
	// when none did). A NAK that reached the source killed the flow and
	// queued it for repair.
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
		down:   make(map[[2]ad.ID]bool),
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
	return sortedKeys(d.flows)
}

// Send forwards one data packet over handle from its source, which, as in
// ORWG, sends without consulting its own entry. The first PG without state
// NAKs: the NAK tears the state down on its way back, and at the source
// the flow dies and is queued for Repair — evicted or expired state is
// re-established on demand instead of silently blackholing.
func (d *DataPlane) Send(handle uint64) SendResult {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.flows[handle]
	if !ok {
		return SendResult{}
	}
	if len(f.Path) < 2 {
		return SendResult{Delivered: true} // traffic to self crosses no gateway
	}
	w := d.walk()
	w.send(func(g pgstate.Gateway, from ad.ID) pgstate.Action {
		return g.OnData(d.now, from, handle)
	}, f.Path[1], f.Path[0])
	w.commit()
	return SendResult{Delivered: w.delivered, MissAt: w.missAt}
}

// Tick advances the logical clock by dt and sweeps expired soft state in AD
// order. A flow whose source entry expired was abandoned (the source
// stopped refreshing): it dies without being queued for repair.
func (d *DataPlane) Tick(dt sim.Time) (expired int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.now += dt
	for _, id := range sortedKeys(d.tables) {
		for _, a := range (pgstate.Gateway{ID: id, Table: d.tables[id]}).OnExpire(d.now, nil) {
			expired++
			if f, ok := d.flows[a.Handle]; ok && f.Path.Source() == id {
				delete(d.flows, a.Handle)
			}
		}
	}
	return expired
}

// RefreshAll re-asserts every live flow, in handle order, as ORWG's sources
// do: the source refreshes its own entry, whatever that finds, and sends a
// keepalive down the route, whose wire bytes are counted per link crossed.
// A hop that already dropped the state NAKs; the flow dies and is queued
// for Repair.
func (d *DataPlane) RefreshAll() (refreshed, failed int) {
	ttlMillis := uint32(0)
	if d.cfg.Kind == pgstate.Soft {
		ttlMillis = uint32(d.cfg.TTL / sim.Millisecond)
	}
	// A Refresh frame is fixed-width: its size does not depend on the handle.
	pktLen := uint64(len(wire.Marshal(&wire.Refresh{TTLMillis: ttlMillis})))
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, h := range sortedKeys(d.flows) {
		f := d.flows[h]
		d.tables[f.Path.Source()].Refresh(d.now, h, d.cfg.TTL)
		w := d.walk()
		if len(f.Path) > 1 {
			w.send(func(g pgstate.Gateway, from ad.ID) pgstate.Action {
				d.refreshBytes += pktLen
				return g.OnRefresh(d.now, from, h, d.cfg.TTL)
			}, f.Path[1], f.Path[0])
		}
		w.commit()
		if len(w.failed) > 0 {
			failed++
		} else {
			refreshed++
		}
	}
	return refreshed, failed
}

// Control runs the gateway rules for one control op, which the caller has
// validated and applied to the world: the endpoints of a failed link flush
// the handles crossing it, NAK upstream and tear down downstream, and an AD
// whose policy changed NAKs the transit entries its new terms forbid. It
// returns the number of handle entries torn down. A restore only brings
// its link back; a full invalidation changes nothing here.
func (d *DataPlane) Control(op wire.PlanStep) (flushed int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch op.Op {
	case wire.CtlFail:
		d.down[ad.LinkKey(op.A, op.B)] = true
	case wire.CtlRestore:
		delete(d.down, ad.LinkKey(op.A, op.B))
	}
	w := d.walk()
	w.control(op)
	return w.commit()
}

// Predict lists, per step and in ascending order, the live flows Control
// would fail at their source if steps were applied in order: the same
// walks, left uncommitted, so nothing changes (but an expired entry they
// read is swept, as any read sweeps it). A flow is listed at the first step
// that fails it.
func (d *DataPlane) Predict(steps []wire.PlanStep) [][]uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	w := d.walk()
	out := make([][]uint64, len(steps))
	for i, op := range steps {
		n := len(w.failed)
		w.control(op)
		out[i] = slices.Clone(w.failed[n:])
		slices.Sort(out[i])
	}
	return out
}

// Repair re-establishes every queued flow through srv, in handle order:
// query a fresh route (the server's cache reflects post-failure topology
// after its own invalidation) and install it under a new handle. Wall time
// per successful repair is recorded in the re-setup latency histogram.
func (d *DataPlane) Repair(srv *Server) (attempted, repaired int) {
	d.mu.Lock()
	handles := sortedKeys(d.repair)
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

// sortedKeys lists m's keys in ascending order.
func sortedKeys[K ad.ID | uint64, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// A packet is what a walk carries from gateway to gateway: the rule its
// arrival at g from AD from runs.
type packet func(g pgstate.Gateway, from ad.ID) pgstate.Action

// A walk runs the gateway rules for one data-plane operation, carrying out
// each action at once: a packet passed on, or a NAK or teardown sent,
// arrives at the next gateway there and then. The entries the rules take
// out are kept per AD in gone, and the flows they fail at their source in
// failed, until commit.
type walk struct {
	d         *DataPlane
	gone      map[ad.ID]map[uint64]bool
	failed    []uint64
	delivered bool
	missAt    ad.ID  // the AD the first NAK named
	naks      uint64 // SetupNoState NAKs sent
}

func (d *DataPlane) walk() *walk {
	return &walk{d: d, gone: make(map[ad.ID]map[uint64]bool)}
}

// gateway is id's gateway as this walk sees it, through its overlay.
func (w *walk) gateway(id ad.ID) pgstate.Gateway {
	if w.gone[id] == nil {
		w.gone[id] = make(map[uint64]bool)
	}
	return pgstate.Gateway{ID: id, Table: w.d.table(id), Gone: w.gone[id]}
}

// control carries out the rules for one control op at the ADs it touches.
func (w *walk) control(op wire.PlanStep) {
	switch op.Op {
	case wire.CtlFail:
		for _, end := range [2][2]ad.ID{{op.A, op.B}, {op.B, op.A}} {
			if _, ok := w.d.tables[end[0]]; ok {
				for _, a := range w.gateway(end[0]).OnLinkDown(w.d.now, end[1], nil) {
					w.do(end[0], a, nil)
				}
			}
		}
	case wire.CtlPolicy:
		if _, ok := w.d.tables[op.A]; ok {
			for _, a := range w.gateway(op.A).OnPolicy(w.d.now, op.Terms, nil) {
				w.do(op.A, a, nil)
			}
		}
	}
}

// send has packet p arrive at AD to from AD from and carries out what its
// rule returns there. A packet sent over a failed link never arrives.
func (w *walk) send(p packet, to, from ad.ID) {
	if !w.d.down[ad.LinkKey(from, to)] {
		w.do(to, p(w.gateway(to), from), p)
	}
}

// do carries out action a, which a rule returned at AD at; p is the packet
// a Forward passes on.
func (w *walk) do(at ad.ID, a pgstate.Action, p packet) {
	now := w.d.now
	switch a.Op {
	case pgstate.Forward:
		w.send(p, a.To, at)
	case pgstate.Deliver:
		w.delivered = true
	case pgstate.NAK:
		if a.Code == wire.SetupNoState {
			w.naks++
		}
		if w.missAt == 0 {
			w.missAt = a.At
		}
		w.send(func(g pgstate.Gateway, _ ad.ID) pgstate.Action {
			return g.OnNAK(now, a.Handle, a.Code, a.At)
		}, a.To, at)
	case pgstate.Teardown:
		w.send(func(g pgstate.Gateway, _ ad.ID) pgstate.Action {
			return g.OnTeardown(now, a.Handle)
		}, a.To, at)
	case pgstate.Fail:
		if f, ok := w.d.flows[a.Handle]; ok && f.Path.Source() == at && !slices.Contains(w.failed, a.Handle) {
			w.failed = append(w.failed, a.Handle)
		}
	}
}

// commit applies the walk: the entries it took out leave their tables, in
// AD then handle order, and the flows it failed die and are queued for
// repair. It returns the number of entries removed.
func (w *walk) commit() (removed int) {
	d := w.d
	for _, id := range sortedKeys(w.gone) {
		for _, h := range sortedKeys(w.gone[id]) {
			d.tables[id].Remove(h)
			removed++
		}
	}
	for _, h := range w.failed {
		d.repair[h] = d.flows[h].Req
		delete(d.flows, h)
	}
	d.naks += w.naks
	return removed
}

package wire

import (
	"repro/internal/ad"
	"repro/internal/policy"
)

// Serving-protocol messages: the route-server daemon (§5.4) answers route
// queries, control-plane mutations (link fail/restore, policy replacement,
// full invalidation), data-plane operations, and stats requests over a
// framed binary session built on this package's message format. Every
// request carries a client-chosen ID echoed verbatim in its reply so
// clients may pipeline.

// Control operation codes (Control.Op).
const (
	// CtlFail takes the A-B link down with a scoped invalidation.
	CtlFail uint8 = iota
	// CtlRestore brings a previously failed A-B link back up.
	CtlRestore
	// CtlPolicy replaces AD A's terms with the step's term list.
	CtlPolicy
	// CtlInvalidate empties the whole route cache: the full invalidation.
	CtlInvalidate
)

// Control reply codes (ControlReply.Code).
const (
	// CtlOK reports success.
	CtlOK uint8 = iota
	// CtlErr reports failure; ControlReply.Err carries the reason.
	CtlErr
)

// Data-plane operation codes (DataOp.Op).
const (
	// OpInstall serves a route for Req and installs PG handle state.
	OpInstall uint8 = iota
	// OpSend forwards one data packet over Handle.
	OpSend
	// OpRefresh re-asserts every live flow's soft state.
	OpRefresh
	// OpTick advances the data plane's logical clock by Arg seconds.
	OpTick
	// OpRepair re-establishes every flow queued by misses or failures.
	OpRepair
	// OpState reports the data-plane metrics summary.
	OpState
)

// Data-plane reply codes (DataOpReply.Code).
const (
	// DataOK reports success (install found a route, send delivered, …).
	DataOK uint8 = iota
	// DataNoRoute means install found no legal route for the request.
	DataNoRoute
	// DataNoState means send hit a PG without state; N1 names the AD and
	// the flow is queued for repair.
	DataNoState
	// DataUnknownHandle means send named a handle with no live flow.
	DataUnknownHandle
	// DataBadOp means the daemon did not recognize DataOp.Op.
	DataBadOp
)

// Query is one route request on a daemon session.
type Query struct {
	// ID correlates the reply; the daemon echoes it verbatim.
	ID  uint64
	Req policy.Request
}

// Type implements Message.
func (*Query) Type() MsgType { return TypeQuery }

func (m *Query) code(c codec) codec {
	c.u64(&m.ID)
	c.request(&m.Req)
	return c
}

// QueryReply answers a Query: the synthesized route, or Found false when no
// legal route exists.
type QueryReply struct {
	ID    uint64
	Found bool
	Path  ad.Path
}

// Type implements Message.
func (*QueryReply) Type() MsgType { return TypeQueryReply }

func (m *QueryReply) code(c codec) codec {
	c.u64(&m.ID)
	c.flag(&m.Found)
	c.path(&m.Path)
	return c
}

// Control is a control-plane mutation: a request ID and one PlanStep's
// fields — link fail/restore (A, B), policy replacement (A = the AD, Terms =
// its new term list), or a full invalidation.
type Control struct {
	ID    uint64
	Op    uint8
	A, B  ad.ID
	Terms []policy.Term
}

// NewControl is the request that asks for st under the given ID.
func NewControl(id uint64, st PlanStep) *Control {
	return &Control{ID: id, Op: st.Op, A: st.A, B: st.B, Terms: st.Terms}
}

// Step is the mutation the request asks for.
func (m *Control) Step() PlanStep {
	return PlanStep{Op: m.Op, A: m.A, B: m.B, Terms: m.Terms}
}

// Type implements Message.
func (*Control) Type() MsgType { return TypeControl }

func (m *Control) code(c codec) codec {
	c.u64(&m.ID)
	st := m.Step() // the rest of the body is the step's
	c.step(&st)
	if c.dec {
		m.Op, m.A, m.B, m.Terms = st.Op, st.A, st.B, st.Terms
	}
	return c
}

// ControlReply acknowledges a Control or Drain: the scoped-invalidation
// eviction/retention counts (fail/restore/policy), the new generation
// (invalidate), or an error.
type ControlReply struct {
	ID       uint64
	Code     uint8
	Evicted  uint64
	Retained uint64
	// Flushed counts PG handle entries invalidated by a link failure.
	Flushed uint64
	Gen     uint64
	// Err is the failure reason when Code is CtlErr.
	Err string
}

// OK reports whether the control operation succeeded.
func (m *ControlReply) OK() bool { return m.Code == CtlOK }

// Type implements Message.
func (*ControlReply) Type() MsgType { return TypeControlReply }

func (m *ControlReply) code(c codec) codec {
	c.u64(&m.ID)
	c.u8(&m.Code)
	c.u64(&m.Evicted)
	c.u64(&m.Retained)
	c.u64(&m.Flushed)
	c.u64(&m.Gen)
	c.str(&m.Err)
	return c
}

// DataOp is one data-plane operation: install (Req), send (Handle), tick
// (Arg seconds), refresh, repair, or state.
type DataOp struct {
	ID     uint64
	Op     uint8
	Handle uint64
	Arg    uint32
	Req    policy.Request
}

// Type implements Message.
func (*DataOp) Type() MsgType { return TypeDataOp }

func (m *DataOp) code(c codec) codec {
	c.u64(&m.ID)
	c.u8(&m.Op)
	c.u64(&m.Handle)
	c.u32(&m.Arg)
	c.request(&m.Req)
	return c
}

// DataOpReply answers a DataOp. Field use per op:
//
//	install  Handle + Path on DataOK
//	send     DataOK delivered; DataNoState with N1 = the stateless AD
//	refresh  N1 refreshed, N2 lost state
//	tick     N1 clock seconds, N2 entries expired
//	repair   N1 attempted, N2 repaired
//	state    Text = the metrics summary
type DataOpReply struct {
	ID     uint64
	Op     uint8
	Code   uint8
	Handle uint64
	Path   ad.Path
	N1, N2 uint64
	Text   string
}

// Type implements Message.
func (*DataOpReply) Type() MsgType { return TypeDataOpReply }

func (m *DataOpReply) code(c codec) codec {
	c.u64(&m.ID)
	c.u8(&m.Op)
	c.u8(&m.Code)
	c.u64(&m.Handle)
	c.path(&m.Path)
	c.u64(&m.N1)
	c.u64(&m.N2)
	c.str(&m.Text)
	return c
}

// StatsQuery asks for the serving counters.
type StatsQuery struct {
	ID uint64
}

// Type implements Message.
func (*StatsQuery) Type() MsgType { return TypeStatsQuery }

func (m *StatsQuery) code(c codec) codec { c.u64(&m.ID); return c }

// StatsReply carries the serving counters: generation, query/hit/coalesce/
// miss/failure totals, the live cache size, and the daemon's connection
// counters (sessions accepted, evicted for slow consumption, refused at
// the limit or during drain) so operators can observe connection churn
// server-side. The connection counters are zero on front ends with no
// daemon (stdin line mode).
type StatsReply struct {
	ID          uint64
	Gen         uint64
	Queries     uint64
	Hits        uint64
	Coalesced   uint64
	Misses      uint64
	Failures    uint64
	Cached      uint64
	Accepted    uint64
	EvictedSlow uint64
	Refused     uint64
}

// Type implements Message.
func (*StatsReply) Type() MsgType { return TypeStatsReply }

func (m *StatsReply) code(c codec) codec {
	for _, v := range [...]*uint64{
		&m.ID, &m.Gen, &m.Queries, &m.Hits, &m.Coalesced, &m.Misses,
		&m.Failures, &m.Cached, &m.Accepted, &m.EvictedSlow, &m.Refused,
	} {
		c.u64(v)
	}
	return c
}

// Drain asks the daemon to shut down gracefully: stop accepting, finish
// in-flight requests, flush replies, close every session. Acknowledged
// with a ControlReply before the drain begins.
type Drain struct {
	ID uint64
}

// Type implements Message.
func (*Drain) Type() MsgType { return TypeDrain }

func (m *Drain) code(c codec) codec { c.u64(&m.ID); return c }

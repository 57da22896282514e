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

func (m *Query) appendBody(dst []byte) []byte {
	dst = appendU64(dst, m.ID)
	return appendRequest(dst, m.Req)
}

func (m *Query) decodeBody(r *reader) {
	m.ID = r.u64()
	m.Req = readRequest(r)
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

func (m *QueryReply) appendBody(dst []byte) []byte {
	dst = appendU64(dst, m.ID)
	found := uint8(0)
	if m.Found {
		found = 1
	}
	dst = append(dst, found)
	return appendPath(dst, m.Path)
}

func (m *QueryReply) decodeBody(r *reader) {
	m.ID = r.u64()
	m.Found = r.u8() == 1
	m.Path = readPath(r)
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

func (m *Control) appendBody(dst []byte) []byte {
	return appendStep(appendU64(dst, m.ID), m.Step())
}

func (m *Control) decodeBody(r *reader) {
	*m = *NewControl(r.u64(), readStep(r))
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

func (m *ControlReply) appendBody(dst []byte) []byte {
	dst = appendU64(dst, m.ID)
	dst = append(dst, m.Code)
	dst = appendU64(dst, m.Evicted)
	dst = appendU64(dst, m.Retained)
	dst = appendU64(dst, m.Flushed)
	dst = appendU64(dst, m.Gen)
	return appendString(dst, m.Err)
}

func (m *ControlReply) decodeBody(r *reader) {
	m.ID = r.u64()
	m.Code = r.u8()
	m.Evicted = r.u64()
	m.Retained = r.u64()
	m.Flushed = r.u64()
	m.Gen = r.u64()
	m.Err = readString(r)
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

func (m *DataOp) appendBody(dst []byte) []byte {
	dst = appendU64(dst, m.ID)
	dst = append(dst, m.Op)
	dst = appendU64(dst, m.Handle)
	dst = appendU32(dst, m.Arg)
	return appendRequest(dst, m.Req)
}

func (m *DataOp) decodeBody(r *reader) {
	m.ID = r.u64()
	m.Op = r.u8()
	m.Handle = r.u64()
	m.Arg = r.u32()
	m.Req = readRequest(r)
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

func (m *DataOpReply) appendBody(dst []byte) []byte {
	dst = appendU64(dst, m.ID)
	dst = append(dst, m.Op, m.Code)
	dst = appendU64(dst, m.Handle)
	dst = appendPath(dst, m.Path)
	dst = appendU64(dst, m.N1)
	dst = appendU64(dst, m.N2)
	return appendString(dst, m.Text)
}

func (m *DataOpReply) decodeBody(r *reader) {
	m.ID = r.u64()
	m.Op = r.u8()
	m.Code = r.u8()
	m.Handle = r.u64()
	m.Path = readPath(r)
	m.N1 = r.u64()
	m.N2 = r.u64()
	m.Text = readString(r)
}

// StatsQuery asks for the serving counters.
type StatsQuery struct {
	ID uint64
}

// Type implements Message.
func (*StatsQuery) Type() MsgType { return TypeStatsQuery }

func (m *StatsQuery) appendBody(dst []byte) []byte { return appendU64(dst, m.ID) }

func (m *StatsQuery) decodeBody(r *reader) { m.ID = r.u64() }

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

func (m *StatsReply) appendBody(dst []byte) []byte {
	for _, v := range []uint64{m.ID, m.Gen, m.Queries, m.Hits, m.Coalesced, m.Misses, m.Failures, m.Cached, m.Accepted, m.EvictedSlow, m.Refused} {
		dst = appendU64(dst, v)
	}
	return dst
}

func (m *StatsReply) decodeBody(r *reader) {
	m.ID = r.u64()
	m.Gen = r.u64()
	m.Queries = r.u64()
	m.Hits = r.u64()
	m.Coalesced = r.u64()
	m.Misses = r.u64()
	m.Failures = r.u64()
	m.Cached = r.u64()
	m.Accepted = r.u64()
	m.EvictedSlow = r.u64()
	m.Refused = r.u64()
}

// Drain asks the daemon to shut down gracefully: stop accepting, finish
// in-flight requests, flush replies, close every session. Acknowledged
// with a ControlReply before the drain begins.
type Drain struct {
	ID uint64
}

// Type implements Message.
func (*Drain) Type() MsgType { return TypeDrain }

func (m *Drain) appendBody(dst []byte) []byte { return appendU64(dst, m.ID) }

func (m *Drain) decodeBody(r *reader) { m.ID = r.u64() }

// String encoding: 16-bit byte length followed by the raw bytes.

func appendString(dst []byte, s string) []byte {
	dst = appendU16(dst, uint16(len(s)))
	return append(dst, s...)
}

func readString(r *reader) string {
	return string(r.bytes(int(r.u16())))
}

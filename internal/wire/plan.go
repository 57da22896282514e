package wire

import (
	"fmt"

	"repro/internal/ad"
	"repro/internal/policy"
)

// What-if planning messages: a daemon session may propose a batch of
// control mutations (Plan with Commit false), receive the predicted blast
// radius (PlanReply carrying the plan ID), and later apply it (Plan with
// Commit true naming the plan ID; the daemon refuses if its mutation epoch
// moved since the plan was computed). Like every serving message, requests
// carry a client-chosen ID echoed verbatim in the reply.

// PlanStep is one control mutation — the value every front end parses into,
// synthesis.World resolves, a Control or SyncEntry carries and a Plan
// batches. Op is a Control operation code; A, B are the link endpoints
// (fail/restore); for a policy step A is the advertiser and Terms the list
// its policy is replaced with, the empty list included (§5.4: the AD then
// carries no transit). CtlInvalidate is not plannable: a full invalidation's
// blast radius is the whole cache by definition.
type PlanStep struct {
	Op    uint8
	A, B  ad.ID
	Terms []policy.Term
}

// OpenPolicy is the policy step that replaces id's terms with one open term
// of the given cost: what "policy AD COST" spells in line mode, in a
// scenario's plan steps and in the experiment timelines.
func OpenPolicy(id ad.ID, cost uint32) PlanStep {
	t := policy.OpenTerm(id, 0)
	t.Cost = cost
	return PlanStep{Op: CtlPolicy, A: id, Terms: []policy.Term{t}}
}

// String renders the step the way reports and errors spell it.
func (st PlanStep) String() string {
	switch st.Op {
	case CtlFail:
		return fmt.Sprintf("fail %v-%v", st.A, st.B)
	case CtlRestore:
		return fmt.Sprintf("restore %v-%v", st.A, st.B)
	case CtlPolicy:
		if len(st.Terms) == 1 {
			t := st.Terms[0]
			t.Advertiser = st.A // as SetTerms will force it
			if t.EqualContent(OpenPolicy(st.A, t.Cost).Terms[0]) {
				return fmt.Sprintf("policy %v cost %d", st.A, t.Cost)
			}
		}
		return fmt.Sprintf("policy %v (%d terms)", st.A, len(st.Terms))
	case CtlInvalidate:
		return "invalidate"
	default:
		return fmt.Sprintf("step(%d)", st.Op)
	}
}

// Replicable reports whether the SyncEntry that carries st to HA followers
// fits a frame. Of the three messages that hold a step it has the most fixed
// overhead, so a term list that just fits a Control would otherwise be
// accepted by a primary that can never stream it. Only a term list can be
// that long.
func (st PlanStep) Replicable() bool {
	if len(st.Terms) == 0 {
		return true
	}
	_, err := AppendMessage(nil, &SyncEntry{Op: SyncCtl, Ctl: st})
	return err == nil
}

// Step encoding, shared by Control, SyncEntry and Plan: op, the two AD IDs,
// a 16-bit term count and the terms as an LSA carries them.

// minStepLen is the encoded size of a step with no terms.
const minStepLen = 1 + 4 + 4 + 2

func (c *codec) step(st *PlanStep) {
	c.u8(&st.Op)
	c.id(&st.A)
	c.id(&st.B)
	list(c, &st.Terms, minTermLen)
	for i := range st.Terms {
		c.term(&st.Terms[i])
	}
}

// Plan proposes a what-if batch (Commit false, Steps set) or asks to apply
// a previously computed plan (Commit true, PlanID set).
type Plan struct {
	ID     uint64
	Commit bool
	PlanID uint64
	Steps  []PlanStep
}

// Type implements Message.
func (*Plan) Type() MsgType { return TypePlan }

func (m *Plan) code(c codec) codec {
	c.u64(&m.ID)
	c.flag(&m.Commit)
	c.u64(&m.PlanID)
	list(&c, &m.Steps, minStepLen)
	for i := range m.Steps {
		c.step(&m.Steps[i])
	}
	return c
}

// PlanReply answers a Plan. For a proposal it carries the predicted blast
// radius: cache entries evicted vs retained, live flows torn down, pairs
// losing all routes, the re-synthesis bill (count plus a latency
// projection from the live synthesis histogram), and the shared
// gained/lost/rerouted/transit impact summary for the focus AD. For a
// commit it carries the observed eviction/retention/flush counts with
// Committed true. Code is CtlOK or CtlErr (Err holds the reason — e.g. the
// staleness refusal).
type PlanReply struct {
	ID   uint64
	Code uint8
	Err  string
	// PlanID names the parked plan a later commit may apply; Epoch is the
	// server state it was computed against.
	PlanID uint64
	Epoch  uint64
	// Committed distinguishes an applied plan's observed counts from a
	// proposal's predictions.
	Committed bool
	Evicted   uint64
	Retained  uint64
	Teardowns uint64
	// Flushed counts PG handle entries torn down by a link failure or a
	// policy change the plan committed (commit replies only).
	Flushed uint64
	// Unroutable counts pairs that lose all routes; Resynth is the
	// re-synthesis bill's count, with the projection priced from the live
	// histogram (nanoseconds; zero before any synthesis was observed).
	Unroutable     uint64
	Resynth        uint64
	MeanSynthNanos uint64
	ProjNanos      uint64
	// The shared impact summary (policytool's rendering path).
	Focus         ad.ID
	Gained        uint64
	Lost          uint64
	Rerouted      uint64
	TransitBefore uint64
	TransitAfter  uint64
	// Truncated reports that the shadow-synthesis budget cut the assessed
	// population short.
	Truncated bool
}

// OK reports whether the plan operation succeeded.
func (m *PlanReply) OK() bool { return m.Code == CtlOK }

// Type implements Message.
func (*PlanReply) Type() MsgType { return TypePlanReply }

func (m *PlanReply) code(c codec) codec {
	c.u64(&m.ID)
	c.u8(&m.Code)
	c.str(&m.Err)
	c.u64(&m.PlanID)
	c.u64(&m.Epoch)
	flags := uint8(0)
	if m.Committed {
		flags |= 1
	}
	if m.Truncated {
		flags |= 2
	}
	c.u8(&flags)
	if c.dec {
		m.Committed, m.Truncated = flags&1 != 0, flags&2 != 0
	}
	for _, v := range [...]*uint64{
		&m.Evicted, &m.Retained, &m.Teardowns, &m.Flushed,
		&m.Unroutable, &m.Resynth, &m.MeanSynthNanos, &m.ProjNanos,
	} {
		c.u64(v)
	}
	c.id(&m.Focus)
	for _, v := range [...]*uint64{&m.Gained, &m.Lost, &m.Rerouted, &m.TransitBefore, &m.TransitAfter} {
		c.u64(v)
	}
	return c
}

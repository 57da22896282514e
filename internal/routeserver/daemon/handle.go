package daemon

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/wire"
)

// Handle executes one protocol request and builds the reply. It is the only
// executor: a daemon session and line mode, local or remote, all hand it the
// wire.Message they decoded or parsed (the session-parity test in cmd/routed
// compares their transcripts). A Query is answered in *qr, the caller's reused
// reply, and m itself may be a decoder's reused Query: Handle and everything
// under it copy out what they keep and retain neither. What is not a serving
// request — a routing-protocol message, a reply, a Drain, which only a daemon
// can honour — is refused with a control error.
func (b *Backend) Handle(m wire.Message, qr *wire.QueryReply) wire.Message {
	switch q := m.(type) {
	case *wire.Query:
		if q.Req.Hour > 23 {
			return badHour(q.ID, q.Req.Hour)
		}
		res := b.srv.Query(q.Req)
		*qr = wire.QueryReply{ID: q.ID, Found: res.Found, Path: res.Path}
		return qr

	case *wire.Control:
		eff, err := b.Control(q.Step())
		if err != nil {
			return &wire.ControlReply{ID: q.ID, Code: wire.CtlErr, Err: err.Error()}
		}
		return &wire.ControlReply{
			ID: q.ID, Evicted: uint64(eff.Evicted), Retained: uint64(eff.Retained),
			Flushed: uint64(eff.Flushed), Gen: eff.Gen,
		}

	case *wire.DataOp:
		if q.Req.Hour > 23 {
			return badHour(q.ID, q.Req.Hour)
		}
		return b.dataOp(q)

	case *wire.Plan:
		return b.plan(q)

	case *wire.StatsQuery:
		s := b.srv.Snapshot()
		rep := &wire.StatsReply{
			ID: q.ID, Gen: s.Invalidations, Queries: s.Queries, Hits: s.Hits,
			Coalesced: s.Coalesced, Misses: s.Misses, Failures: s.Failures,
			Cached: uint64(b.srv.CacheLen()),
		}
		b.mu.Lock()
		connMetrics := b.connMetrics
		b.mu.Unlock()
		if connMetrics != nil {
			cm := connMetrics()
			rep.Accepted, rep.EvictedSlow, rep.Refused = cm.Accepted, cm.Evicted, cm.Refused
		}
		return rep

	default:
		return &wire.ControlReply{Code: wire.CtlErr, Err: "unexpected " + m.Type().String()}
	}
}

// badHour refuses a request whose hour of day is not one. Policy windows take
// the hour modulo 24, so hour 36 would be answered as hour 12 and cached
// beside it: two syntheses and two entries for one answer.
func badHour(id uint64, hour uint8) *wire.ControlReply {
	return &wire.ControlReply{ID: id, Code: wire.CtlErr, Err: fmt.Sprintf("hour %d out of range 0-23", hour)}
}

// dataOp executes one data-plane operation: install serves a route and
// installs it as PG handle state, send forwards one packet over it, tick
// advances the soft-state clock (by at least a second), refresh, repair and
// state act on every live flow.
func (b *Backend) dataOp(q *wire.DataOp) *wire.DataOpReply {
	rep := &wire.DataOpReply{ID: q.ID, Op: q.Op}
	switch q.Op {
	case wire.OpInstall:
		handle, path, found := b.Install(q.Req)
		if !found {
			rep.Code = wire.DataNoRoute
			break
		}
		rep.Handle, rep.Path = handle, path
	case wire.OpSend:
		switch r := b.dp.Send(q.Handle); {
		case r.Delivered:
		case r.MissAt != 0:
			rep.Code, rep.N1 = wire.DataNoState, uint64(r.MissAt)
		default:
			rep.Code = wire.DataUnknownHandle
		}
	case wire.OpRefresh:
		refreshed, failed := b.dp.RefreshAll()
		rep.N1, rep.N2 = uint64(refreshed), uint64(failed)
	case wire.OpTick:
		secs := max(sim.Time(q.Arg), 1)
		rep.N2 = uint64(b.dp.Tick(secs * sim.Second))
		rep.N1 = uint64(b.dp.Now() / sim.Second)
	case wire.OpRepair:
		attempted, repaired := b.dp.Repair(b.srv)
		rep.N1, rep.N2 = uint64(attempted), uint64(repaired)
	case wire.OpState:
		rep.Text = b.dp.Metrics().String()
	default:
		rep.Code = wire.DataBadOp
	}
	return rep
}

// plan executes one wire.Plan: a what-if proposal, answered with the
// predicted blast radius and the ID it is parked under, or a commit of one.
func (b *Backend) plan(q *wire.Plan) *wire.PlanReply {
	if q.Commit {
		res, err := b.Commit(q.PlanID)
		if err != nil {
			return &wire.PlanReply{ID: q.ID, Code: wire.CtlErr, Err: err.Error()}
		}
		return &wire.PlanReply{
			ID: q.ID, PlanID: q.PlanID, Committed: true,
			Evicted: uint64(res.Evicted), Retained: uint64(res.Retained), Flushed: uint64(res.Flushed),
		}
	}
	id, r, err := b.Plan(q.Steps)
	if err != nil {
		return &wire.PlanReply{ID: q.ID, Code: wire.CtlErr, Err: err.Error()}
	}
	return &wire.PlanReply{
		ID:             q.ID,
		PlanID:         id,
		Epoch:          r.Epoch,
		Evicted:        uint64(len(r.EvictedKeys)),
		Retained:       uint64(r.Retained),
		Teardowns:      uint64(len(r.Teardowns)),
		Unroutable:     uint64(len(r.Unroutable)),
		Resynth:        uint64(r.Bill.Count),
		MeanSynthNanos: uint64(r.Bill.PerSynth),
		ProjNanos:      uint64(r.Bill.Projected),
		Focus:          r.Impact.AD,
		Gained:         uint64(len(r.Impact.Gained)),
		Lost:           uint64(len(r.Impact.Lost)),
		Rerouted:       uint64(len(r.Impact.Rerouted)),
		TransitBefore:  uint64(r.Impact.TransitBefore),
		TransitAfter:   uint64(r.Impact.TransitAfter),
		Truncated:      r.Truncated,
	}
}

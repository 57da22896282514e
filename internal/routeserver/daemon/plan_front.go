package daemon

import (
	"fmt"

	"repro/internal/policytool"
	"repro/internal/wire"
)

// HandlePlan executes one wire.Plan — a what-if proposal or a commit —
// against the backend and builds the reply. It is the single execution
// path shared by the daemon protocol and cmd/routed's stdin line mode, so
// both front ends predict and apply identically (the session-parity test
// pins this).
func (b *Backend) HandlePlan(q *wire.Plan) *wire.PlanReply {
	rep := &wire.PlanReply{ID: q.ID}
	if q.Commit {
		res, err := b.Commit(q.PlanID)
		if err != nil {
			rep.Code, rep.Err = wire.CtlErr, err.Error()
			return rep
		}
		rep.PlanID = q.PlanID
		rep.Committed = true
		rep.Evicted = uint64(res.Evicted)
		rep.Retained = uint64(res.Retained)
		rep.Flushed = uint64(res.Flushed)
		return rep
	}
	id, r, err := b.Plan(q.Steps)
	if err != nil {
		rep.Code, rep.Err = wire.CtlErr, err.Error()
		return rep
	}
	rep.PlanID = id
	rep.Epoch = r.Epoch
	rep.Evicted = uint64(len(r.EvictedKeys))
	rep.Retained = uint64(r.Retained)
	rep.Teardowns = uint64(len(r.Teardowns))
	rep.Unroutable = uint64(len(r.Unroutable))
	rep.Resynth = uint64(r.Bill.Count)
	rep.MeanSynthNanos = uint64(r.Bill.PerSynth)
	rep.ProjNanos = uint64(r.Bill.Projected)
	rep.Focus = r.Impact.AD
	rep.Gained = uint64(len(r.Impact.Gained))
	rep.Lost = uint64(len(r.Impact.Lost))
	rep.Rerouted = uint64(len(r.Impact.Rerouted))
	rep.TransitBefore = uint64(r.Impact.TransitBefore)
	rep.TransitAfter = uint64(r.Impact.TransitAfter)
	rep.Truncated = r.Truncated
	return rep
}

// RenderPlanReply renders a plan or commit reply as the routed CLI's text
// lines, routing the Gained/Lost/transit digest through policytool's
// shared formatter so routed and policytool print the same summary. The
// wall-clock projection fields are deliberately omitted: the text output
// must be deterministic for a given serving state (the session-parity test
// compares two independently built worlds byte for byte), while the
// nanosecond fields stay available on the wire reply.
func RenderPlanReply(rep *wire.PlanReply) []string {
	if !rep.OK() {
		return []string{"error: " + rep.Err}
	}
	if rep.Committed {
		return []string{fmt.Sprintf("committed plan %d: evicted %d, retained %d, flushed %d",
			rep.PlanID, rep.Evicted, rep.Retained, rep.Flushed)}
	}
	lines := []string{
		fmt.Sprintf("plan %d @ epoch %d", rep.PlanID, rep.Epoch),
		fmt.Sprintf("cache: evict %d, retain %d | teardown %d flows | %d pairs lose all routes | resynth %d",
			rep.Evicted, rep.Retained, rep.Teardowns, rep.Unroutable, rep.Resynth),
	}
	lines = append(lines, policytool.SummaryLines(rep.Focus,
		int(rep.TransitBefore), int(rep.TransitAfter),
		int(rep.Gained), int(rep.Lost), int(rep.Rerouted))...)
	if rep.Truncated {
		lines = append(lines, "note: population truncated by budget")
	}
	lines = append(lines, fmt.Sprintf("commit %d to apply", rep.PlanID))
	return lines
}

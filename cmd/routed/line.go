package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/ad"
	"repro/internal/policy"
	"repro/internal/routeserver/daemon"
	"repro/internal/wire"
)

// maxLineBytes bounds one line-mode input line (bufio.Scanner's 64KB
// default is too small for scripted sessions with long comment or batch
// lines).
const maxLineBytes = 1 << 20

// serve runs line mode: one query or command per stdin line. It is
// factored over io.Reader/io.Writer so tests can script a full session.
// A read error — including a line over maxLineBytes — is surfaced on out
// and returned; it must not masquerade as a clean quit.
func serve(in io.Reader, out io.Writer, be *daemon.Backend) error {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	for sc.Scan() {
		if !serveLine(sc.Text(), out, be) {
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(out, "read error: %v\n", err)
		return err
	}
	return nil
}

// serveLine executes one line-mode command against the shared backend —
// the same dispatch the binary protocol uses — reporting whether the
// session continues. The text in and out is the only thing this adapter
// owns.
func serveLine(line string, out io.Writer, be *daemon.Backend) bool {
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "#") {
		return true
	}
	fields := strings.Fields(line)
	switch fields[0] {
	case "quit", "exit":
		return false
	case "stats":
		st := be.Stats()
		fmt.Fprintf(out, "gen %d: %d queries, %d hits, %d coalesced, %d misses, %d failures, %d cached\n",
			st.Gen, st.Queries, st.Hits, st.Coalesced, st.Misses, st.Failures, st.Cached)
		// Connection counters exist only when a daemon fronts this backend;
		// line mode stays short so session parity with the wire rendering
		// holds.
		if st.ConnsKnown {
			fmt.Fprintf(out, "conns: %d accepted, %d evicted-slow, %d refused\n",
				st.Accepted, st.EvictedSlow, st.Refused)
		}
	case "fail", "restore", "policy", "invalidate":
		// The control ops: one parser, one Backend.Control. Scoped ops
		// report what they evicted and retained — a failure also flushes
		// installed handle state that crossed the dead link and queues its
		// flows for "repair" — and the full invalidation, which restores
		// optimality after scoped retentions, reports its count.
		var eff daemon.Effect
		op, err := parseStep(fields)
		if err == nil {
			eff, err = be.Control(op)
		}
		if err != nil {
			fmt.Fprintln(out, err)
			return true
		}
		if eff.Flushed > 0 {
			fmt.Fprintf(out, "flushed %d handle entries\n", eff.Flushed)
		}
		if op.Op == wire.CtlInvalidate {
			fmt.Fprintf(out, "ok (gen %d)\n", eff.Gen)
		} else {
			fmt.Fprintf(out, "ok (evicted %d, retained %d)\n", eff.Evicted, eff.Retained)
		}
	case "install":
		// install SRC DST [QOS UCI HOUR]: serve a route and install it as
		// PG handle state so data can flow over it.
		req, err := parseQuery(fields[1:])
		if err != nil {
			fmt.Fprintln(out, "usage: install SRC DST [QOS UCI HOUR]")
			return true
		}
		h, path, found := be.Install(req)
		if !found {
			fmt.Fprintf(out, "no-route %v\n", req)
			return true
		}
		fmt.Fprintf(out, "handle %d via %v\n", h, path)
	case "send":
		// send HANDLE: forward one data packet over installed state.
		if len(fields) != 2 {
			fmt.Fprintln(out, "usage: send HANDLE")
			return true
		}
		h, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			fmt.Fprintf(out, "bad handle %q\n", fields[1])
			return true
		}
		switch r := be.Send(h); {
		case r.Delivered:
			fmt.Fprintln(out, "delivered")
		case r.MissAt != 0:
			fmt.Fprintf(out, "no-state at %v (flow queued for repair)\n", r.MissAt)
		default:
			fmt.Fprintf(out, "unknown handle %d\n", h)
		}
	case "refresh":
		refreshed, failed := be.Refresh()
		fmt.Fprintf(out, "refreshed %d flows, %d lost state\n", refreshed, failed)
	case "tick":
		// tick SECONDS: advance the data plane's soft-state clock.
		secs := int64(1)
		if len(fields) > 1 {
			v, err := strconv.ParseInt(fields[1], 10, 32)
			if err != nil || v <= 0 {
				fmt.Fprintln(out, "usage: tick SECONDS")
				return true
			}
			secs = v
		}
		now, expired := be.Tick(secs)
		fmt.Fprintf(out, "t=%ds, %d entries expired\n", now, expired)
	case "repair":
		attempted, repaired := be.Repair()
		fmt.Fprintf(out, "repaired %d/%d flows\n", repaired, attempted)
	case "state":
		fmt.Fprintln(out, be.State())
	case "plan":
		// plan STEP[; STEP ...]: predict the batch's blast radius without
		// applying it. Same execution path as the wire Plan message.
		steps, err := parsePlanSteps(strings.TrimSpace(strings.TrimPrefix(line, "plan")))
		if err != nil {
			fmt.Fprintln(out, err)
			return true
		}
		for _, l := range daemon.RenderPlanReply(be.HandlePlan(&wire.Plan{Steps: steps})) {
			fmt.Fprintln(out, l)
		}
	case "commit":
		// commit ID: apply a previously planned batch; refused if the
		// mutation epoch moved since the plan.
		if len(fields) != 2 {
			fmt.Fprintln(out, "usage: commit PLAN_ID")
			return true
		}
		id, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			fmt.Fprintf(out, "bad plan id %q\n", fields[1])
			return true
		}
		for _, l := range daemon.RenderPlanReply(be.HandlePlan(&wire.Plan{Commit: true, PlanID: id})) {
			fmt.Fprintln(out, l)
		}
	default:
		req, err := parseQuery(fields)
		if err != nil {
			fmt.Fprintln(out, err)
			return true
		}
		res := be.Query(req)
		if res.Found {
			fmt.Fprintf(out, "%v\n", res.Path)
		} else {
			fmt.Fprintf(out, "no-route %v\n", req)
		}
	}
	return true
}

// parsePlanSteps parses the "plan" argument: semicolon-separated steps,
// each in parseStep's form.
func parsePlanSteps(spec string) ([]wire.PlanStep, error) {
	var steps []wire.PlanStep
	for _, part := range strings.Split(spec, ";") {
		f := strings.Fields(part)
		if len(f) == 0 {
			continue
		}
		st, err := parseStep(f)
		if err != nil {
			return nil, fmt.Errorf("plan step %q: %v", strings.Join(f, " "), err)
		}
		steps = append(steps, st)
	}
	if len(steps) == 0 {
		return nil, fmt.Errorf("usage: plan STEP[; STEP ...] with STEP one of \"fail A B\", \"restore A B\", \"policy AD COST\"")
	}
	return steps, nil
}

// parseStep parses the text form of one control op — "fail A B", "restore
// A B", "policy AD COST" or "invalidate" — as a command line and as a plan
// step alike.
func parseStep(f []string) (wire.PlanStep, error) {
	switch f[0] {
	case "fail", "restore":
		a, b, ok := twoIDs(f[1:])
		if !ok {
			return wire.PlanStep{}, fmt.Errorf("usage: %s A B", f[0])
		}
		op := wire.CtlFail
		if f[0] == "restore" {
			op = wire.CtlRestore
		}
		return wire.PlanStep{Op: op, A: a, B: b}, nil
	case "policy":
		a, c, ok := twoIDs(f[1:])
		if !ok {
			return wire.PlanStep{}, fmt.Errorf("usage: policy AD COST")
		}
		return wire.PlanStep{Op: wire.CtlPolicy, A: a, Cost: uint32(c)}, nil
	case "invalidate":
		return wire.PlanStep{Op: wire.CtlInvalidate}, nil
	}
	return wire.PlanStep{}, fmt.Errorf("unknown control op %q", f[0])
}

// parseQuery parses "SRC DST [QOS UCI HOUR]".
func parseQuery(fields []string) (policy.Request, error) {
	var req policy.Request
	if len(fields) < 2 || len(fields) > 5 {
		return req, fmt.Errorf("query is SRC DST [QOS UCI HOUR]; commands are fail, restore, policy, invalidate, plan, commit, stats, install, send, refresh, tick, repair, state, quit")
	}
	vals := make([]uint64, len(fields))
	for i, f := range fields {
		v, err := strconv.ParseUint(f, 10, 32)
		if err != nil {
			return req, fmt.Errorf("bad number %q", f)
		}
		vals[i] = v
	}
	req.Src, req.Dst = ad.ID(vals[0]), ad.ID(vals[1])
	if len(vals) > 2 {
		req.QOS = policy.QOS(vals[2])
	}
	if len(vals) > 3 {
		req.UCI = policy.UCI(vals[3])
	}
	if len(vals) > 4 {
		req.Hour = uint8(vals[4])
	}
	return req, nil
}

// twoIDs parses two numeric arguments.
func twoIDs(fields []string) (ad.ID, ad.ID, bool) {
	if len(fields) != 2 {
		return 0, 0, false
	}
	a, errA := strconv.ParseUint(fields[0], 10, 32)
	b, errB := strconv.ParseUint(fields[1], 10, 32)
	if errA != nil || errB != nil {
		return 0, 0, false
	}
	return ad.ID(a), ad.ID(b), true
}

package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/ad"
	"repro/internal/policy"
	"repro/internal/policytool"
	"repro/internal/wire"
)

// maxLineBytes bounds one line-mode input line (bufio.Scanner's 64KB
// default is too small for scripted sessions with long comment or batch
// lines).
const maxLineBytes = 1 << 20

// serve runs line mode, a text skin over the wire protocol: each stdin line
// is parsed into the request a protocol client would have sent (parseLine),
// executed by do — the backend in this process or a client's round trip to a
// running daemon, line mode cannot tell which — and the reply rendered back
// to text (render). It is factored over io.Reader/io.Writer so tests can
// script a full session. A read error — including a line over maxLineBytes —
// or a failed round trip is surfaced on out and returned; neither may
// masquerade as a clean quit.
func serve(in io.Reader, out io.Writer, do func(wire.Message) (wire.Message, error)) error {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if cmd := strings.Fields(line)[0]; cmd == "quit" || cmd == "exit" {
			return nil
		}
		request, err := parseLine(line)
		if err != nil {
			fmt.Fprintln(out, err)
			continue
		}
		reply, err := do(request)
		if err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
			return err
		}
		for _, l := range render(request, reply) {
			fmt.Fprintln(out, l)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(out, "read error: %v\n", err)
		return err
	}
	return nil
}

// parseLine turns one command line into its protocol request; the error is
// the usage text to print instead. Anything that is not a command is a
// query, "SRC DST [QOS UCI HOUR]".
func parseLine(line string) (wire.Message, error) {
	fields := strings.Fields(line)
	switch fields[0] {
	case "stats":
		return &wire.StatsQuery{}, nil
	case "fail", "restore", "policy", "invalidate":
		// The control ops. Scoped ops report what they evicted and retained —
		// a failure also flushes installed handle state that crossed the dead
		// link and queues its flows for "repair" — and the full invalidation,
		// which restores optimality after scoped retentions, reports its
		// count.
		st, err := parseStep(fields)
		if err != nil {
			return nil, err
		}
		return wire.NewControl(0, st), nil
	case "install":
		// install SRC DST [QOS UCI HOUR]: serve a route and install it as
		// PG handle state so data can flow over it.
		req, err := parseQuery(fields[1:])
		if err != nil {
			return nil, fmt.Errorf("usage: install SRC DST [QOS UCI HOUR]")
		}
		return &wire.DataOp{Op: wire.OpInstall, Req: req}, nil
	case "send":
		// send HANDLE: forward one data packet over installed state.
		if len(fields) != 2 {
			return nil, fmt.Errorf("usage: send HANDLE")
		}
		h, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad handle %q", fields[1])
		}
		return &wire.DataOp{Op: wire.OpSend, Handle: h}, nil
	case "refresh":
		return &wire.DataOp{Op: wire.OpRefresh}, nil
	case "tick":
		// tick [SECONDS]: advance the data plane's soft-state clock; without
		// an argument Arg stays 0 and the executor steps its minimum, 1s.
		op := &wire.DataOp{Op: wire.OpTick}
		if len(fields) > 1 {
			v, err := strconv.ParseUint(fields[1], 10, 31)
			if err != nil || v == 0 {
				return nil, fmt.Errorf("usage: tick SECONDS")
			}
			op.Arg = uint32(v)
		}
		return op, nil
	case "repair":
		return &wire.DataOp{Op: wire.OpRepair}, nil
	case "state":
		return &wire.DataOp{Op: wire.OpState}, nil
	case "plan":
		// plan STEP[; STEP ...]: predict the batch's blast radius without
		// applying it.
		steps, err := parsePlanSteps(strings.TrimPrefix(line, "plan"))
		if err != nil {
			return nil, err
		}
		return &wire.Plan{Steps: steps}, nil
	case "commit":
		// commit ID: apply a previously planned batch; refused if the
		// mutation epoch moved since the plan.
		if len(fields) != 2 {
			return nil, fmt.Errorf("usage: commit PLAN_ID")
		}
		id, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad plan id %q", fields[1])
		}
		return &wire.Plan{Commit: true, PlanID: id}, nil
	}
	req, err := parseQuery(fields)
	if err != nil {
		return nil, err
	}
	return &wire.Query{Req: req}, nil
}

// render prints reply, the answer to request, as line mode's text. The
// request supplies what replies do not echo (the pair a no-route names, the
// handle a send missed, which control op an "ok" acknowledges) and says which
// reply type is in order.
func render(request, reply wire.Message) []string {
	line := func(format string, args ...any) []string { return []string{fmt.Sprintf(format, args...)} }
	if cr, ok := reply.(*wire.ControlReply); ok && !cr.OK() {
		return line("%s", cr.Err)
	}
	switch q := request.(type) {
	case *wire.Query:
		if rep, ok := reply.(*wire.QueryReply); ok {
			if !rep.Found {
				return line("no-route %v", q.Req)
			}
			return line("%v", rep.Path)
		}
	case *wire.Control:
		if rep, ok := reply.(*wire.ControlReply); ok {
			var lines []string
			if rep.Flushed > 0 {
				lines = line("flushed %d handle entries", rep.Flushed)
			}
			if q.Op == wire.CtlInvalidate {
				return append(lines, fmt.Sprintf("ok (gen %d)", rep.Gen))
			}
			return append(lines, fmt.Sprintf("ok (evicted %d, retained %d)", rep.Evicted, rep.Retained))
		}
	case *wire.DataOp:
		if rep, ok := reply.(*wire.DataOpReply); ok && rep.Op == q.Op && rep.Code != wire.DataBadOp {
			switch q.Op {
			case wire.OpInstall:
				if rep.Code == wire.DataNoRoute {
					return line("no-route %v", q.Req)
				}
				return line("handle %d via %v", rep.Handle, rep.Path)
			case wire.OpSend:
				switch rep.Code {
				case wire.DataNoState:
					return line("no-state at %v (flow queued for repair)", ad.ID(rep.N1))
				case wire.DataUnknownHandle:
					return line("unknown handle %d", q.Handle)
				}
				return line("delivered")
			case wire.OpRefresh:
				return line("refreshed %d flows, %d lost state", rep.N1, rep.N2)
			case wire.OpTick:
				return line("t=%ds, %d entries expired", rep.N1, rep.N2)
			case wire.OpRepair:
				return line("repaired %d/%d flows", rep.N2, rep.N1)
			case wire.OpState:
				return line("%s", rep.Text)
			}
		}
	case *wire.StatsQuery:
		if rep, ok := reply.(*wire.StatsReply); ok {
			lines := line("gen %d: %d queries, %d hits, %d coalesced, %d misses, %d failures, %d cached",
				rep.Gen, rep.Queries, rep.Hits, rep.Coalesced, rep.Misses, rep.Failures, rep.Cached)
			// A daemon has accepted at least the session asking; a backend
			// with no daemon in front has no connections to count.
			if rep.Accepted > 0 {
				lines = append(lines, fmt.Sprintf("conns: %d accepted, %d evicted-slow, %d refused",
					rep.Accepted, rep.EvictedSlow, rep.Refused))
			}
			return lines
		}
	case *wire.Plan:
		if rep, ok := reply.(*wire.PlanReply); ok {
			return renderPlan(rep)
		}
	}
	return line("unexpected %v in reply to %v", reply.Type(), request.Type())
}

// renderPlan prints a plan or commit reply, routing the Gained/Lost/transit
// digest through policytool's shared formatter so routed and policytool
// print the same summary. The wall-clock projection fields are deliberately
// omitted: the text must be deterministic for a given serving state (the
// session-parity test compares two independently built worlds byte for
// byte), while the nanosecond fields stay available on the wire reply.
func renderPlan(rep *wire.PlanReply) []string {
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
	return append(lines, fmt.Sprintf("commit %d to apply", rep.PlanID))
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
		return wire.OpenPolicy(a, uint32(c)), nil
	case "invalidate":
		return wire.PlanStep{Op: wire.CtlInvalidate}, nil
	}
	return wire.PlanStep{}, fmt.Errorf("unknown control op %q", f[0])
}

// parseQuery parses "SRC DST [QOS UCI HOUR]": two AD IDs, two one-byte
// classes, and an hour of day, 0-23.
func parseQuery(fields []string) (policy.Request, error) {
	var req policy.Request
	if len(fields) < 2 || len(fields) > 5 {
		return req, fmt.Errorf("query is SRC DST [QOS UCI HOUR]; commands are fail, restore, policy, invalidate, plan, commit, stats, install, send, refresh, tick, repair, state, quit")
	}
	var vals [5]uint64
	for i, f := range fields {
		bits := 32
		if i >= 2 {
			bits = 8
		}
		v, err := strconv.ParseUint(f, 10, bits)
		if err != nil || (i == 4 && v > 23) {
			return req, fmt.Errorf("bad number %q", f)
		}
		vals[i] = v
	}
	return policy.Request{
		Src: ad.ID(vals[0]), Dst: ad.ID(vals[1]),
		QOS: policy.QOS(vals[2]), UCI: policy.UCI(vals[3]), Hour: uint8(vals[4]),
	}, nil
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

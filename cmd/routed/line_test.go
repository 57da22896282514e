package main

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/ad"
	"repro/internal/policy"
	"repro/internal/wire"
)

// TestLineCommandTable pins line mode's two pure halves for each of the 14
// commands: the request parseLine builds from the text, and the text render
// makes of a reply to it. Nothing is executed; the replies are hand-made so
// every arm of render is reached, including the ones a four-AD world cannot
// provoke.
func TestLineCommandTable(t *testing.T) {
	pair := policy.Request{Src: 1, Dst: 4}
	for _, tc := range []struct {
		line    string
		request wire.Message
		reply   wire.Message
		want    string // render's lines, joined by "\n"
	}{
		{"1 4", &wire.Query{Req: pair},
			&wire.QueryReply{Found: true, Path: ad.Path{1, 2, 4}}, "AD1>AD2>AD4"},
		{"1 4 1 2 23", &wire.Query{Req: policy.Request{Src: 1, Dst: 4, QOS: 1, UCI: 2, Hour: 23}},
			&wire.QueryReply{}, "no-route AD1->AD4 qos=1 uci=2 h=23"},
		{"fail 2 4", &wire.Control{Op: wire.CtlFail, A: 2, B: 4},
			&wire.ControlReply{Evicted: 1, Retained: 2, Flushed: 3}, "flushed 3 handle entries\nok (evicted 1, retained 2)"},
		{"restore 2 4", &wire.Control{Op: wire.CtlRestore, A: 2, B: 4},
			&wire.ControlReply{Code: wire.CtlErr, Err: "link AD2-AD4 was not failed here"}, "link AD2-AD4 was not failed here"},
		{"policy 7 10", wire.NewControl(0, wire.OpenPolicy(7, 10)),
			&wire.ControlReply{Retained: 5}, "ok (evicted 0, retained 5)"},
		{"invalidate", &wire.Control{Op: wire.CtlInvalidate},
			&wire.ControlReply{Gen: 3}, "ok (gen 3)"},
		{"install 1 4", &wire.DataOp{Op: wire.OpInstall, Req: pair},
			&wire.DataOpReply{Op: wire.OpInstall, Handle: 9, Path: ad.Path{1, 4}}, "handle 9 via AD1>AD4"},
		{"install 1 4 0 0 7", &wire.DataOp{Op: wire.OpInstall, Req: policy.Request{Src: 1, Dst: 4, Hour: 7}},
			&wire.DataOpReply{Op: wire.OpInstall, Code: wire.DataNoRoute}, "no-route AD1->AD4 qos=0 uci=0 h=7"},
		{"send 9", &wire.DataOp{Op: wire.OpSend, Handle: 9},
			&wire.DataOpReply{Op: wire.OpSend}, "delivered"},
		{"send 9", &wire.DataOp{Op: wire.OpSend, Handle: 9},
			&wire.DataOpReply{Op: wire.OpSend, Code: wire.DataNoState, N1: 2}, "no-state at AD2 (flow queued for repair)"},
		{"send 9", &wire.DataOp{Op: wire.OpSend, Handle: 9},
			&wire.DataOpReply{Op: wire.OpSend, Code: wire.DataUnknownHandle}, "unknown handle 9"},
		{"refresh", &wire.DataOp{Op: wire.OpRefresh},
			&wire.DataOpReply{Op: wire.OpRefresh, N1: 4, N2: 1}, "refreshed 4 flows, 1 lost state"},
		{"tick", &wire.DataOp{Op: wire.OpTick},
			&wire.DataOpReply{Op: wire.OpTick, N1: 1}, "t=1s, 0 entries expired"},
		{"tick 30", &wire.DataOp{Op: wire.OpTick, Arg: 30},
			&wire.DataOpReply{Op: wire.OpTick, N1: 31, N2: 6}, "t=31s, 6 entries expired"},
		{"repair", &wire.DataOp{Op: wire.OpRepair},
			&wire.DataOpReply{Op: wire.OpRepair, N1: 3, N2: 2}, "repaired 2/3 flows"},
		{"state", &wire.DataOp{Op: wire.OpState},
			&wire.DataOpReply{Op: wire.OpState, Text: "flows 0, pending-repairs 0"}, "flows 0, pending-repairs 0"},
		{"plan fail 2 4; policy 7 10 ;restore 2 4", &wire.Plan{Steps: []wire.PlanStep{
			{Op: wire.CtlFail, A: 2, B: 4}, wire.OpenPolicy(7, 10), {Op: wire.CtlRestore, A: 2, B: 4}}},
			&wire.PlanReply{PlanID: 5, Epoch: 8, Evicted: 1, Retained: 2, Teardowns: 3, Unroutable: 4, Resynth: 1,
				Focus: 7, Gained: 1, Lost: 4, Rerouted: 2, TransitBefore: 6, TransitAfter: 3, Truncated: true,
				MeanSynthNanos: 999, ProjNanos: 999},
			"plan 5 @ epoch 8\n" +
				"cache: evict 1, retain 2 | teardown 3 flows | 4 pairs lose all routes | resynth 1\n" +
				"transit load: 6 -> 3 routed pairs cross AD7\n" +
				"connectivity: +1 gained, -4 lost, 2 rerouted\n" +
				"note: population truncated by budget\n" +
				"commit 5 to apply"},
		{"plan fail 9 9", &wire.Plan{Steps: []wire.PlanStep{{Op: wire.CtlFail, A: 9, B: 9}}},
			&wire.PlanReply{Code: wire.CtlErr, Err: "step 1: no link AD9-AD9"}, "error: step 1: no link AD9-AD9"},
		{"commit 5", &wire.Plan{Commit: true, PlanID: 5},
			&wire.PlanReply{PlanID: 5, Committed: true, Evicted: 1, Retained: 2, Flushed: 3},
			"committed plan 5: evicted 1, retained 2, flushed 3"},
		{"stats", &wire.StatsQuery{},
			&wire.StatsReply{Gen: 1, Queries: 9, Hits: 5, Coalesced: 1, Misses: 3, Failures: 2, Cached: 4},
			"gen 1: 9 queries, 5 hits, 1 coalesced, 3 misses, 2 failures, 4 cached"},
		{"stats", &wire.StatsQuery{},
			&wire.StatsReply{Accepted: 2, EvictedSlow: 1, Refused: 3},
			"gen 0: 0 queries, 0 hits, 0 coalesced, 0 misses, 0 failures, 0 cached\nconns: 2 accepted, 1 evicted-slow, 3 refused"},
		// Whatever the request, an error reply prints its reason, and a reply
		// of the wrong kind is named rather than mis-rendered.
		{"state", &wire.DataOp{Op: wire.OpState},
			&wire.ControlReply{Code: wire.CtlErr, Err: "message exceeds maximum size"}, "message exceeds maximum size"},
		{"1 4", &wire.Query{Req: pair},
			&wire.StatsReply{}, "unexpected stats-reply in reply to query"},
		{"refresh", &wire.DataOp{Op: wire.OpRefresh},
			&wire.DataOpReply{Op: wire.OpRefresh, Code: wire.DataBadOp}, "unexpected data-op-reply in reply to data-op"},
		{"repair", &wire.DataOp{Op: wire.OpRepair},
			&wire.DataOpReply{Op: wire.OpState}, "unexpected data-op-reply in reply to data-op"},
	} {
		request, err := parseLine(tc.line)
		if err != nil {
			t.Errorf("parseLine(%q): %v", tc.line, err)
			continue
		}
		if !reflect.DeepEqual(request, tc.request) {
			t.Errorf("parseLine(%q) = %#v, want %#v", tc.line, request, tc.request)
		}
		if got := strings.Join(render(request, tc.reply), "\n"); got != tc.want {
			t.Errorf("render(%q, %T):\n got %q\nwant %q", tc.line, tc.reply, got, tc.want)
		}
	}

	// Lines that never become a request: the error is the text to print.
	for line, want := range map[string]string{
		"send":           "usage: send HANDLE",
		"send 1 2":       "usage: send HANDLE",
		"send nope":      `bad handle "nope"`,
		"tick 0":         "usage: tick SECONDS",
		"tick -3":        "usage: tick SECONDS",
		"tick soon":      "usage: tick SECONDS",
		"commit":         "usage: commit PLAN_ID",
		"commit x":       `bad plan id "x"`,
		"install 1":      "usage: install SRC DST [QOS UCI HOUR]",
		"install 1 4 x":  "usage: install SRC DST [QOS UCI HOUR]",
		"plan":           "usage: plan STEP[; STEP ...]",
		"plan ; ;":       "usage: plan STEP[; STEP ...]",
		"plan drop 2 4":  `plan step "drop 2 4": unknown control op "drop"`,
		"fail 2":         "usage: fail A B",
		"restore x y":    "usage: restore A B",
		"policy 2":       "usage: policy AD COST",
		"bogus one":      `bad number "bogus"`,
		"1 4 0 0 268":    `bad number "268"`,
		"help":           "query is SRC DST [QOS UCI HOUR]; commands are fail,",
		"1 2 3 4 5 6":    "query is SRC DST [QOS UCI HOUR]; commands are fail,",
		"stats verbose":  "", // extra words after an argument-less command are ignored
		"invalidate now": "",
	} {
		request, err := parseLine(line)
		switch {
		case want == "" && err != nil:
			t.Errorf("parseLine(%q): %v", line, err)
		case want != "" && (err == nil || !strings.HasPrefix(err.Error(), want)):
			t.Errorf("parseLine(%q) = %#v, %v; want the error %q", line, request, err, want)
		}
	}
}

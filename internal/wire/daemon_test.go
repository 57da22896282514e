package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"repro/internal/ad"
	"repro/internal/policy"
)

// policySteps are CtlPolicy steps with no, one and many terms, explicit AD
// sets included: what Control, Plan and SyncEntry must each carry whole.
func policySteps() []PlanStep {
	narrow := policy.Term{
		Advertiser: 3, Serial: 4,
		Sources: policy.SetOf(6, 7), Dests: policy.SetOf(), PrevADs: policy.Universal(), NextADs: policy.SetOf(1),
		QOS: policy.ClassSetOf(1), UCI: policy.ClassSetOf(0, 2),
		Hours: policy.HourWindow{Start: 22, End: 6}, Cost: 9,
	}
	many := make([]policy.Term, 40)
	for i := range many {
		many[i] = narrow
		many[i].Serial = uint32(i + 1)
		many[i].Sources = policy.SetOf(ad.ID(i+1), ad.ID(i+2), ad.ID(i+3))
	}
	return []PlanStep{
		{Op: CtlPolicy, A: 3},
		OpenPolicy(2, 100),
		{Op: CtlPolicy, A: 3, Terms: []policy.Term{narrow}},
		{Op: CtlPolicy, A: 3, Terms: many},
	}
}

func daemonMessages() []Message {
	msgs := baseDaemonMessages()
	for i, st := range policySteps() {
		msgs = append(msgs,
			NewControl(uint64(100+i), st),
			&SyncEntry{Seq: uint64(200 + i), Op: SyncCtl, Ctl: st})
	}
	return append(msgs, &Plan{ID: 15, Steps: policySteps()})
}

func baseDaemonMessages() []Message {
	return []Message{
		&Query{ID: 1, Req: policy.Request{Src: 1, Dst: 9, QOS: 1, UCI: 2, Hour: 13}},
		&QueryReply{ID: 1, Found: true, Path: ad.Path{1, 4, 9}},
		&QueryReply{ID: 2, Found: false},
		&Control{ID: 3, Op: CtlFail, A: 2, B: 4},
		&ControlReply{ID: 3, Code: CtlOK, Evicted: 5, Retained: 12, Flushed: 3, Gen: 2},
		&ControlReply{ID: 9, Code: CtlErr, Err: "no link AD2-AD4"},
		&DataOp{ID: 5, Op: OpInstall, Req: policy.Request{Src: 1, Dst: 4}},
		&DataOp{ID: 6, Op: OpSend, Handle: 7},
		&DataOp{ID: 7, Op: OpTick, Arg: 30},
		&DataOpReply{ID: 5, Op: OpInstall, Code: DataOK, Handle: 7, Path: ad.Path{1, 2, 4}},
		&DataOpReply{ID: 6, Op: OpSend, Code: DataNoState, N1: 2},
		&DataOpReply{ID: 8, Op: OpState, Code: DataOK, Text: "flows 3, pending-repairs 0"},
		&StatsQuery{ID: 10},
		&StatsReply{ID: 10, Gen: 1, Queries: 100, Hits: 80, Coalesced: 5, Misses: 15, Failures: 2, Cached: 15,
			Accepted: 40, EvictedSlow: 1, Refused: 3},
		&Drain{ID: 11},
		&Hello{ReplicaID: 2, Mode: ModeSync, Epoch: 3, FromSeq: 77},
		&Hello{ReplicaID: 1, Mode: ModeHeartbeat, Epoch: 1},
		&Heartbeat{ReplicaID: 1, Epoch: 3, Primary: 2, Seq: 120},
		&SyncEntry{Seq: 9, Op: SyncPut,
			Req: policy.Request{Src: 1, Dst: 9, QOS: 1, UCI: 1, Hour: 4}, Found: true,
			Path:  ad.Path{1, 4, 9},
			Links: [][2]ad.ID{{1, 4}, {4, 9}},
			Terms: []policy.Key{{Advertiser: 4, Serial: 2}}},
		&SyncEntry{Seq: 10, Op: SyncPut,
			Req: policy.Request{Src: 1, Dst: 3}, Found: false},
		&SyncEntry{Seq: 11, Op: SyncCtl, Ctl: PlanStep{Op: CtlFail, A: 2, B: 4}},
		&SyncSnapshot{Seq: 40, Count: 17},
		&SyncSnapshot{Seq: 40, Done: true},
		&Promote{ReplicaID: 2, Epoch: 4},
		&NotPrimary{ID: 5, PrimaryID: 1, Addr: "127.0.0.1:4242"},
		&NotPrimary{},
		&Plan{ID: 12, Steps: []PlanStep{
			{Op: CtlFail, A: 2, B: 4},
			OpenPolicy(7, 10),
		}},
		&Plan{ID: 13, Commit: true, PlanID: 3},
		&PlanReply{ID: 12, Code: CtlOK, PlanID: 3, Epoch: 9,
			Evicted: 17, Retained: 203, Teardowns: 4, Unroutable: 2, Resynth: 17,
			MeanSynthNanos: 12345, ProjNanos: 209865, Focus: 7,
			Gained: 1, Lost: 2, Rerouted: 5, TransitBefore: 40, TransitAfter: 38,
			Truncated: true},
		&PlanReply{ID: 13, Code: CtlOK, PlanID: 3, Committed: true,
			Evicted: 17, Retained: 203, Flushed: 6},
		&PlanReply{ID: 14, Code: CtlErr, Err: "plan 3 is stale: mutation epoch moved 9 -> 11, re-plan"},
	}
}

func TestDaemonMessagesRoundTrip(t *testing.T) {
	for _, m := range daemonMessages() {
		got := roundTrip(t, m)
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%v: got %+v, want %+v", m.Type(), got, m)
		}
	}
}

func TestDaemonMessagesTruncationEveryPrefix(t *testing.T) {
	for _, m := range daemonMessages() {
		full := Marshal(m)
		for cut := 4; cut < len(full); cut++ {
			truncated := append([]byte{}, full[:cut]...)
			truncated[2] = byte((cut - 4) >> 8)
			truncated[3] = byte(cut - 4)
			_, _ = Unmarshal(truncated) // must not panic
		}
	}
}

func TestReadWriteMessageStream(t *testing.T) {
	var buf bytes.Buffer
	msgs := daemonMessages()
	for _, m := range msgs {
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatalf("write %v: %v", m.Type(), err)
		}
	}
	for i, want := range msgs {
		got, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("message %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, err := ReadMessage(&buf); err != io.EOF {
		t.Errorf("end of stream: err = %v, want io.EOF", err)
	}
}

func TestReadMessageErrors(t *testing.T) {
	full := Marshal(&Query{ID: 1, Req: policy.Request{Src: 1, Dst: 2}})

	// EOF mid-header.
	if _, err := ReadMessage(bytes.NewReader(full[:2])); err != io.ErrUnexpectedEOF {
		t.Errorf("mid-header: err = %v", err)
	}
	// EOF mid-body.
	if _, err := ReadMessage(bytes.NewReader(full[:len(full)-3])); err != io.ErrUnexpectedEOF {
		t.Errorf("mid-body: err = %v", err)
	}
	// Bad version rejected before the body is read.
	bad := append([]byte{}, full...)
	bad[0] = 9
	if _, err := ReadMessage(bytes.NewReader(bad)); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version: err = %v", err)
	}
}

func TestControlReplyOK(t *testing.T) {
	if !(&ControlReply{Code: CtlOK}).OK() {
		t.Error("CtlOK reply reports failure")
	}
	if (&ControlReply{Code: CtlErr, Err: "x"}).OK() {
		t.Error("CtlErr reply reports OK")
	}
}

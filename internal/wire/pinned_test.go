package wire

import (
	"encoding/hex"
	"errors"
	"testing"

	"repro/internal/ad"
	"repro/internal/policy"
)

// pinnedTerm has an explicit set, an empty set and a universal set, so a
// term in a pinned frame exercises every ADSet layout.
var pinnedTerm = policy.Term{
	Advertiser: 3, Serial: 4,
	Sources: policy.SetOf(6, 7), Dests: policy.SetOf(), PrevADs: policy.Universal(), NextADs: policy.SetOf(1),
	QOS: policy.ClassSetOf(1), UCI: policy.ClassSetOf(0, 2),
	Hours: policy.HourWindow{Start: 22, End: 6}, Cost: 9,
}

// pinnedFrames is one populated message of every type with the whole frame
// it encodes to. The overhead columns of the experiment report are counted
// in these bytes, so a codec change that moves one fails here first.
var pinnedFrames = []struct {
	m     Message
	frame string
}{
	{&DVUpdate{Routes: []DVRoute{
		{Dest: 5, Metric: 3, QOS: 1, Flags: FlagTraversedDown},
		{Dest: 9, Metric: 1<<32 - 1, QOS: 2, Flags: FlagWithdraw},
	}}, "0101001600020000000500000003010100000009ffffffff0202"},
	{&PathVector{Routes: []PVRoute{
		{Dest: 7, Metric: 12, QOS: 2, Path: ad.Path{1, 2, 7},
			AllowedSources: policy.SetOf(1, 3), UCI: policy.ClassSetOf(0, 1)},
		{Dest: 8, Metric: 1, Withdrawn: true, Path: ad.Path{2, 8},
			AllowedSources: policy.Universal(), UCI: policy.AllClasses},
	}}, "010200420002000000070000000c02000003000000010000000200000007000002000000010000000300000003000000080000000100020002000000020000000801ffffffff"},
	{&LSA{Origin: 4, Seq: 17,
		Links: []LSALink{{Neighbor: 1, Cost: 2, Up: true}, {Neighbor: 9, Cost: 5}},
		Terms: []policy.Term{pinnedTerm, policy.OpenTerm(4, 1)}}, "010300640000000400000011000200000001000000020100000009000000050000020000000300000004000002000000060000000700000001000001000000010000000200000005160600000009000000040000000101010101ffffffffffffffff001800000001"},
	{&Setup{Handle: 0xDEADBEEF12345678, Req: policy.Request{Src: 1, Dst: 9, QOS: 1, UCI: 2, Hour: 13},
		Route:     ad.Path{1, 4, 6, 9},
		TermKeys:  []policy.Key{{Advertiser: 4, Serial: 1}, {Advertiser: 6, Serial: 3}},
		TTLMillis: 30000}, "0104003bdeadbeef12345678000000010000000901020d00040000000100000004000000060000000900020000000400000001000000060000000300007530"},
	{&SetupReply{Handle: 42, Code: SetupNoPolicy, FailedAt: 6}, "0105000d000000000000002a0100000006"},
	{&Data{Handle: 7, Mode: ModeSourceRoute, HopIndex: 2,
		Req:   policy.Request{Src: 1, Dst: 5, QOS: 3, UCI: 1, Hour: 8},
		Route: ad.Path{1, 3, 5}, Payload: []byte("hello world")}, "010600300000000000000007010200000001000000050301080003000000010000000300000005000b68656c6c6f20776f726c64"},
	{&Teardown{Handle: 1234, Reason: TeardownRepair}, "0107000900000000000004d201"},
	{&EGPUpdate{Routes: []EGPRoute{{Dest: 1, Metric: 0}, {Dest: 2, Metric: 128}}}, "01080012000200000001000000000000000200000080"},
	{&Refresh{Handle: 0xABCDEF0102030405, TTLMillis: 45000}, "0109000cabcdef01020304050000afc8"},
	{&Query{ID: 1, Req: policy.Request{Src: 1, Dst: 9, QOS: 1, UCI: 2, Hour: 13}}, "010a00130000000000000001000000010000000901020d"},
	{&QueryReply{ID: 2, Found: true, Path: ad.Path{1, 4, 9}}, "010b00170000000000000002010003000000010000000400000009"},
	{&Control{ID: 3, Op: CtlPolicy, A: 3, B: 5, Terms: []policy.Term{pinnedTerm}}, "010c003f000000000000000302000000030000000500010000000300000004000002000000060000000700000001000001000000010000000200000005160600000009"},
	{&ControlReply{ID: 9, Code: CtlErr, Evicted: 5, Retained: 12, Flushed: 3, Gen: 2,
		Err: "no link AD2-AD4"}, "010d003a0000000000000009010000000000000005000000000000000c00000000000000030000000000000002000f6e6f206c696e6b204144322d414434"},
	{&DataOp{ID: 5, Op: OpInstall, Handle: 7, Arg: 30,
		Req: policy.Request{Src: 1, Dst: 4, QOS: 2, UCI: 3, Hour: 23}}, "010e002000000000000000050000000000000000070000001e0000000100000004020317"},
	{&DataOpReply{ID: 6, Op: OpInstall, Code: DataNoState, Handle: 7, Path: ad.Path{1, 2, 4},
		N1: 2, N2: 3, Text: "flows 3"}, "010f00390000000000000006000200000000000000070003000000010000000200000004000000000000000200000000000000030007666c6f77732033"},
	{&StatsQuery{ID: 10}, "01100008000000000000000a"},
	{&StatsReply{ID: 1, Gen: 2, Queries: 3, Hits: 4, Coalesced: 5, Misses: 6, Failures: 7,
		Cached: 8, Accepted: 9, EvictedSlow: 10, Refused: 11}, "01110058000000000000000100000000000000020000000000000003000000000000000400000000000000050000000000000006000000000000000700000000000000080000000000000009000000000000000a000000000000000b"},
	{&Drain{ID: 11}, "01120008000000000000000b"},
	{&Hello{ReplicaID: 2, Mode: ModeSync, Epoch: 3, FromSeq: 77}, "0113001500000002010000000000000003000000000000004d"},
	{&Heartbeat{ReplicaID: 1, Epoch: 3, Primary: 2, Seq: 120}, "01140018000000010000000000000003000000020000000000000078"},
	{&SyncEntry{Seq: 9, Op: SyncPut,
		Req: policy.Request{Src: 1, Dst: 9, QOS: 1, UCI: 1, Hour: 4}, Found: true,
		Path:  ad.Path{1, 4, 9},
		Links: [][2]ad.ID{{1, 4}, {4, 9}},
		Terms: []policy.Key{{Advertiser: 4, Serial: 2}},
		Ctl:   PlanStep{Op: CtlPolicy, A: 3, B: 5, Terms: []policy.Term{pinnedTerm}}}, "0115007600000000000000090000000001000000090101040100030000000100000004000000090002000000010000000400000004000000090001000000040000000202000000030000000500010000000300000004000002000000060000000700000001000001000000010000000200000005160600000009"},
	{&SyncSnapshot{Seq: 40, Count: 17, Done: true}, "0116000d00000000000000280000001101"},
	{&Promote{ReplicaID: 2, Epoch: 4}, "0117000c000000020000000000000004"},
	{&NotPrimary{ID: 5, PrimaryID: 1, Addr: "127.0.0.1:4242"}, "0118001c000000000000000500000001000e3132372e302e302e313a34323432"},
	{&Plan{ID: 12, Commit: true, PlanID: 3, Steps: []PlanStep{
		{Op: CtlFail, A: 2, B: 4},
		{Op: CtlPolicy, A: 3, Terms: []policy.Term{pinnedTerm, policy.OpenTerm(3, 2)}},
	}}, "0119006f000000000000000c0100000000000000030002000000000200000004000002000000030000000000020000000300000004000002000000060000000700000001000001000000010000000200000005160600000009000000030000000201010101ffffffffffffffff001800000001"},
	{&PlanReply{ID: 12, Code: CtlErr, Err: "plan 3 is stale", PlanID: 3, Epoch: 9,
		Committed: true, Evicted: 17, Retained: 203, Teardowns: 4, Flushed: 6,
		Unroutable: 2, Resynth: 18, MeanSynthNanos: 12345, ProjNanos: 209865, Focus: 7,
		Gained: 1, Lost: 2, Rerouted: 5, TransitBefore: 40, TransitAfter: 38, Truncated: true}, "011a0097000000000000000c01000f706c616e2033206973207374616c650000000000000003000000000000000903000000000000001100000000000000cb0000000000000004000000000000000600000000000000020000000000000012000000000000303900000000000333c90000000700000000000000010000000000000002000000000000000500000000000000280000000000000026"},
}

// TestFramesPinned holds every message type to the bytes it has always put
// on the wire: Marshal must produce the pinned frame, and Unmarshal must
// accept it and give back a message that marshals to it again.
func TestFramesPinned(t *testing.T) {
	seen := make(map[MsgType]bool)
	for i, p := range pinnedFrames {
		typ := p.m.Type()
		seen[typ] = true
		if got := hex.EncodeToString(Marshal(p.m)); got != p.frame {
			t.Errorf("%v (frame %d) encodes to %s, pinned %s", typ, i, got, p.frame)
			continue
		}
		want, _ := hex.DecodeString(p.frame)
		m, err := Unmarshal(want)
		if err != nil {
			t.Errorf("%v: the pinned frame does not decode: %v", typ, err)
			continue
		}
		if got := hex.EncodeToString(Marshal(m)); got != p.frame {
			t.Errorf("%v: the decoded pinned frame re-encodes to %s", typ, got)
		}
	}
	for typ := TypeDVUpdate; typ <= TypePlanReply; typ++ {
		if !seen[typ] {
			t.Errorf("no pinned frame for %v", typ)
		}
	}
	// TypePlanReply is the last type: the loop above covered every one.
	if _, err := Unmarshal([]byte{Version, byte(TypePlanReply + 1), 0, 0}); !errors.Is(err, ErrUnknownType) {
		t.Errorf("type %d after TypePlanReply: err = %v, want ErrUnknownType", TypePlanReply+1, err)
	}
}

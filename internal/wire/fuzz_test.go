package wire

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ad"
	"repro/internal/policy"
)

// TestUnmarshalRandomBytesNeverPanics feeds Unmarshal random garbage. The
// decoder must either return a message or an error — never panic or hang —
// for any input, since nodes parse whatever arrives on a link.
func TestUnmarshalRandomBytesNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 5000; trial++ {
		n := rng.Intn(512)
		buf := make([]byte, n)
		rng.Read(buf)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: panic on %d random bytes: %v", trial, n, r)
				}
			}()
			_, _ = Unmarshal(buf)
		}()
	}
}

// TestUnmarshalMutatedValidMessages flips bytes in valid messages: decode
// must never panic, and when it succeeds, re-marshalling must not panic
// either (decoded values stay in-range for the encoder).
func TestUnmarshalMutatedValidMessages(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	bases := [][]byte{
		Marshal(&DVUpdate{Routes: []DVRoute{{Dest: 1, Metric: 2, QOS: 1}}}),
		Marshal(&LSA{Origin: 3, Seq: 9, Links: []LSALink{{Neighbor: 4, Cost: 1, Up: true}}}),
		Marshal(&Setup{Handle: 7, Route: ad.Path{1, 2, 3}, TTLMillis: 250}),
		Marshal(&Data{Mode: ModeSourceRoute, Payload: []byte("abcdef")}),
		Marshal(&EGPUpdate{Routes: []EGPRoute{{Dest: 5, Metric: 2}}}),
		Marshal(&Refresh{Handle: 7, TTLMillis: 1000}),
		Marshal(&Teardown{Handle: 7, Reason: TeardownRepair}),
		Marshal(&Query{ID: 1, Req: policy.Request{Src: 1, Dst: 9}}),
		Marshal(&QueryReply{ID: 1, Found: true, Path: ad.Path{1, 4, 9}}),
		Marshal(&ControlReply{ID: 9, Code: CtlErr, Err: "no link"}),
		Marshal(&DataOpReply{ID: 5, Op: OpState, Text: "flows 3"}),
		Marshal(&StatsReply{ID: 10, Queries: 100}),
		Marshal(&Plan{ID: 12, Steps: []PlanStep{{Op: CtlFail, A: 2, B: 4}}}),
		Marshal(&PlanReply{ID: 12, Code: CtlOK, PlanID: 3, Evicted: 17, Retained: 203}),
	}
	for trial := 0; trial < 5000; trial++ {
		base := bases[rng.Intn(len(bases))]
		buf := append([]byte(nil), base...)
		// Flip 1-4 random bytes (keep the version byte valid half the
		// time so bodies actually get decoded).
		flips := 1 + rng.Intn(4)
		for i := 0; i < flips; i++ {
			pos := rng.Intn(len(buf))
			if pos == 0 && rng.Intn(2) == 0 {
				continue
			}
			buf[pos] ^= byte(1 + rng.Intn(255))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: panic: %v", trial, r)
				}
			}()
			m, err := Unmarshal(buf)
			if err == nil && m != nil {
				// Round-trip the decoded value; size limits can
				// legitimately panic only if counts exploded, which
				// decode bounds by the body length, so none expected.
				_ = Marshal(m)
			}
		}()
	}
}

// fuzzSeeds are FuzzDecode's message seeds, every type at least once.
func fuzzSeeds() []Message {
	seeds := []Message{
		&DVUpdate{Routes: []DVRoute{{Dest: 1, Metric: 2, QOS: 1, Flags: FlagWithdraw}}},
		&PathVector{Routes: []PVRoute{{
			Dest: 7, Metric: 12, Path: ad.Path{1, 2, 7},
			AllowedSources: policy.SetOf(1, 3), UCI: policy.ClassSetOf(0, 1),
		}}},
		&PathVector{Routes: []PVRoute{
			{Dest: 7, Path: ad.Path{1, 7}, AllowedSources: policy.SetOf(1, 3), UCI: policy.AllClasses},
			{Dest: 8, Withdrawn: true, AllowedSources: policy.SetOf()},
			{Dest: 9, Path: ad.Path{1, 9}, AllowedSources: policy.Universal(), UCI: policy.AllClasses},
			{Dest: 9, QOS: 1, Path: ad.Path{1, 2, 9}, AllowedSources: policy.SetOf(1, 3), UCI: policy.AllClasses},
		}},
		&LSA{Origin: 3, Seq: 9,
			Links: []LSALink{{Neighbor: 4, Cost: 1, Up: true}},
			Terms: []policy.Term{policy.OpenTerm(3, 1)}},
		&Setup{Handle: 7, Req: policy.Request{Src: 1, Dst: 3}, Route: ad.Path{1, 2, 3},
			TermKeys: []policy.Key{{Advertiser: 2, Serial: 1}}, TTLMillis: 250},
		&SetupReply{Handle: 7, Code: SetupNoState, FailedAt: 2},
		&Data{Handle: 7, Mode: ModeHandle, Payload: []byte("payload")},
		&Data{Mode: ModeSourceRoute, HopIndex: 1, Req: policy.Request{Src: 1, Dst: 3},
			Route: ad.Path{1, 2, 3}, Payload: []byte("payload")},
		&Teardown{Handle: 7, Reason: TeardownRepair},
		&EGPUpdate{Routes: []EGPRoute{{Dest: 5, Metric: 2}}},
		&Refresh{Handle: 7, TTLMillis: 1000},
		&Query{ID: 1, Req: policy.Request{Src: 1, Dst: 9, QOS: 1, UCI: 2, Hour: 13}},
		&QueryReply{ID: 1, Found: true, Path: ad.Path{1, 4, 9}},
		&Control{ID: 3, Op: CtlFail, A: 2, B: 4},
		&ControlReply{ID: 9, Code: CtlErr, Evicted: 5, Retained: 12, Err: "no link AD2-AD4"},
		&DataOp{ID: 5, Op: OpInstall, Req: policy.Request{Src: 1, Dst: 4}},
		&DataOpReply{ID: 5, Op: OpInstall, Code: DataOK, Handle: 7, Path: ad.Path{1, 2, 4}, Text: "ok"},
		&StatsQuery{ID: 10},
		&StatsReply{ID: 10, Gen: 1, Queries: 100, Hits: 80, Cached: 15,
			Accepted: 40, EvictedSlow: 1, Refused: 3},
		&Drain{ID: 11},
		&Hello{ReplicaID: 2, Mode: ModeSync, Epoch: 3, FromSeq: 77},
		&Heartbeat{ReplicaID: 1, Epoch: 3, Primary: 2, Seq: 120},
		&SyncEntry{Seq: 9, Op: SyncPut,
			Req: policy.Request{Src: 1, Dst: 9, QOS: 1}, Found: true,
			Path:  ad.Path{1, 4, 9},
			Links: [][2]ad.ID{{1, 4}, {4, 9}},
			Terms: []policy.Key{{Advertiser: 4, Serial: 2}}},
		&SyncEntry{Seq: 11, Op: SyncCtl, Ctl: PlanStep{Op: CtlFail, A: 2, B: 4}},
		&SyncSnapshot{Seq: 40, Count: 17},
		&SyncSnapshot{Seq: 40, Done: true},
		&Promote{ReplicaID: 2, Epoch: 4},
		&NotPrimary{ID: 5, PrimaryID: 1, Addr: "127.0.0.1:4242"},
		&Plan{ID: 12, Steps: []PlanStep{{Op: CtlFail, A: 2, B: 4}, OpenPolicy(7, 10)}},
		&Plan{ID: 15, Steps: policySteps()},
		&Plan{ID: 13, Commit: true, PlanID: 3},
		&PlanReply{ID: 12, Code: CtlOK, PlanID: 3, Epoch: 9,
			Evicted: 17, Retained: 203, Teardowns: 4, Unroutable: 2, Resynth: 17,
			MeanSynthNanos: 12345, ProjNanos: 209865, Focus: 7,
			Gained: 1, Lost: 2, Rerouted: 5, TransitBefore: 40, TransitAfter: 38},
		&PlanReply{ID: 14, Code: CtlErr, Err: "plan 3 is stale", Committed: true},
	}
	for i, st := range policySteps() {
		seeds = append(seeds, NewControl(uint64(100+i), st), &SyncEntry{Seq: uint64(200 + i), Op: SyncCtl, Ctl: st})
	}
	return seeds
}

// FuzzDecode is the native fuzz target over the full message set: Unmarshal
// must never panic, and any message it accepts must re-marshal to a frame
// that decodes again and re-marshals to the same bytes — a fixed point after
// one round. An accepted frame need not be canonical (a flag byte of 2 reads
// as false and re-encodes as 0), so the first re-marshal may differ from the
// input; after it, nothing may move. A path-vector frame is also decoded
// twice through one SetTable, the second time from the sets the first
// stored, and each decode must accept or refuse it as Unmarshal did and
// return the value Unmarshal returned.
func FuzzDecode(f *testing.F) {
	for _, m := range fuzzSeeds() {
		f.Add(Marshal(m))
	}
	f.Add([]byte{})
	f.Add([]byte{Version, byte(TypeRefresh), 0, 0})
	for _, frame := range hostileCounts() {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		m, err := Unmarshal(buf)
		if len(buf) > 1 && MsgType(buf[1]) == TypePathVector {
			var sets SetTable
			for i := 0; i < 2; i++ {
				var pv PathVector
				perr := sets.UnmarshalInto(buf, &pv)
				if (perr == nil) != (err == nil) || err == nil && !reflect.DeepEqual(&pv, m) {
					t.Fatalf("decode %d through a set table: %+v, %v; Unmarshal: %+v, %v", i+1, pv, perr, m, err)
				}
			}
		}
		if err != nil {
			return
		}
		re := Marshal(m)
		m2, err := Unmarshal(re)
		if err != nil {
			t.Fatalf("re-decode of accepted %v failed: %v", m.Type(), err)
		}
		if string(Marshal(m2)) != string(re) {
			t.Fatalf("%v not a fixed point: % x vs % x", m.Type(), Marshal(m2), re)
		}
	})
}

// TestRoundTripIsIdentity: a decoded message is the value that was sent,
// down to its representation. An empty list comes back nil whatever the
// sender held, so every seed and the zero value of every type — whose lists
// are nil — must decode to a value reflect.DeepEqual to itself.
func TestRoundTripIsIdentity(t *testing.T) {
	msgs := fuzzSeeds()
	for typ := TypeDVUpdate; typ <= TypePlanReply; typ++ {
		msgs = append(msgs, messageTypes[typ].new())
	}
	for _, m := range msgs {
		got, err := Unmarshal(Marshal(m))
		if err != nil {
			t.Errorf("%v: %v", m.Type(), err)
		} else if !reflect.DeepEqual(got, m) {
			t.Errorf("%v: decoded %#v, sent %#v", m.Type(), got, m)
		}
	}
}

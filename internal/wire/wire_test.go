package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ad"
	"repro/internal/policy"
	"repro/internal/racecheck"
)

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	buf := Marshal(m)
	got, err := Unmarshal(buf)
	if err != nil {
		t.Fatalf("Unmarshal(%v): %v", m.Type(), err)
	}
	if got.Type() != m.Type() {
		t.Fatalf("type mismatch: %v vs %v", got.Type(), m.Type())
	}
	return got
}

func TestDVUpdateRoundTrip(t *testing.T) {
	m := &DVUpdate{Routes: []DVRoute{
		{Dest: 5, Metric: 3, QOS: 1, Flags: FlagTraversedDown},
		{Dest: 9, Metric: 1<<32 - 1, QOS: 0, Flags: FlagWithdraw},
	}}
	got := roundTrip(t, m).(*DVUpdate)
	if !reflect.DeepEqual(got, m) {
		t.Errorf("got %+v, want %+v", got, m)
	}
}

func TestDVUpdateEmpty(t *testing.T) {
	got := roundTrip(t, &DVUpdate{}).(*DVUpdate)
	if len(got.Routes) != 0 {
		t.Errorf("empty update decoded with %d routes", len(got.Routes))
	}
}

func TestPathVectorRoundTrip(t *testing.T) {
	m := &PathVector{Routes: []PVRoute{
		{
			Dest: 7, Metric: 12, QOS: 2, Withdrawn: false,
			Path:           ad.Path{1, 2, 7},
			AllowedSources: policy.SetOf(1, 3),
			UCI:            policy.ClassSetOf(0, 1),
		},
		{
			Dest: 8, Metric: 1, Withdrawn: true,
			Path:           ad.Path{2, 8},
			AllowedSources: policy.Universal(),
			UCI:            policy.AllClasses,
		},
	}}
	got := roundTrip(t, m).(*PathVector)
	if len(got.Routes) != 2 {
		t.Fatalf("routes = %d", len(got.Routes))
	}
	r0 := got.Routes[0]
	if !r0.Path.Equal(ad.Path{1, 2, 7}) || r0.AllowedSources.IsUniversal() || !r0.AllowedSources.Contains(3) {
		t.Errorf("route 0 = %+v", r0)
	}
	r1 := got.Routes[1]
	if !r1.Withdrawn || !r1.AllowedSources.IsUniversal() {
		t.Errorf("route 1 = %+v", r1)
	}
}

// TestDecodedADSetsAreCanonical checks that a set read off the wire is the
// value the sender held, down to its representation: the empty set SetOf,
// a disjoint Intersect and the decoder build is one value, and sets on
// either side of readADSet's stack buffer size come back whole.
func TestDecodedADSetsAreCanonical(t *testing.T) {
	large := make([]ad.ID, 300)
	for i := range large {
		large[i] = ad.ID(3 * (len(large) - i))
	}
	sets := []policy.ADSet{
		policy.SetOf(), policy.SetOf(1).Intersect(policy.SetOf(2)), policy.ADSet{},
		policy.SetOf(5, 1, 5, 3), policy.SetOf(large...), policy.Universal(),
	}
	m := &PathVector{}
	for i, s := range sets {
		m.Routes = append(m.Routes, PVRoute{Dest: ad.ID(i + 1), AllowedSources: s})
	}
	got := roundTrip(t, m).(*PathVector)
	for i, s := range sets {
		if g := got.Routes[i].AllowedSources; !reflect.DeepEqual(g, s) {
			t.Errorf("set %d: decoded %#v, sent %#v", i, g, s)
		}
	}
	if !reflect.DeepEqual(sets[0], sets[1]) || !reflect.DeepEqual(sets[1], sets[2]) {
		t.Errorf("empty sets differ: %#v, %#v, %#v", sets[0], sets[1], sets[2])
	}
}

func testTerm() policy.Term {
	return policy.Term{
		Advertiser: 5, Serial: 2,
		Sources: policy.SetOf(1, 2), Dests: policy.Universal(),
		PrevADs: policy.Universal(), NextADs: policy.SetOf(9),
		QOS: policy.ClassSetOf(0, 3), UCI: policy.ClassSetOf(0),
		Hours: policy.HourWindow{Start: 9, End: 17}, Cost: 7,
	}
}

func TestLSARoundTrip(t *testing.T) {
	m := &LSA{
		Origin: 4, Seq: 17,
		Links: []LSALink{{Neighbor: 1, Cost: 2, Up: true}, {Neighbor: 9, Cost: 5, Up: false}},
		Terms: []policy.Term{testTerm(), policy.OpenTerm(4, 1)},
	}
	got := roundTrip(t, m).(*LSA)
	if got.Origin != 4 || got.Seq != 17 {
		t.Errorf("origin/seq = %v/%v", got.Origin, got.Seq)
	}
	if !reflect.DeepEqual(got.Links, m.Links) {
		t.Errorf("links = %+v", got.Links)
	}
	if len(got.Terms) != 2 {
		t.Fatalf("terms = %d", len(got.Terms))
	}
	tm := got.Terms[0]
	if tm.Advertiser != 5 || tm.Serial != 2 || !tm.Sources.Contains(2) || tm.Sources.Contains(3) ||
		!tm.Dests.IsUniversal() || !tm.NextADs.Contains(9) || tm.NextADs.Contains(8) ||
		tm.QOS != policy.ClassSetOf(0, 3) || tm.Hours != (policy.HourWindow{Start: 9, End: 17}) || tm.Cost != 7 {
		t.Errorf("term 0 = %+v", tm)
	}
	open := got.Terms[1]
	if !open.Sources.IsUniversal() || open.QOS != policy.AllClasses {
		t.Errorf("open term = %+v", open)
	}
}

func TestSetupRoundTrip(t *testing.T) {
	m := &Setup{
		Handle: 0xDEADBEEF12345678,
		Req:    policy.Request{Src: 1, Dst: 9, QOS: 1, UCI: 2, Hour: 13},
		Route:  ad.Path{1, 4, 6, 9},
		TermKeys: []policy.Key{
			{Advertiser: 4, Serial: 1},
			{Advertiser: 6, Serial: 3},
		},
		TTLMillis: 30000,
	}
	got := roundTrip(t, m).(*Setup)
	if !reflect.DeepEqual(got, m) {
		t.Errorf("got %+v, want %+v", got, m)
	}
}

func TestSetupReplyRoundTrip(t *testing.T) {
	m := &SetupReply{Handle: 42, Code: SetupNoPolicy, FailedAt: 6}
	got := roundTrip(t, m).(*SetupReply)
	if !reflect.DeepEqual(got, m) {
		t.Errorf("got %+v, want %+v", got, m)
	}
	if got.OK() {
		t.Error("failed reply reports OK")
	}
	if !(&SetupReply{Code: SetupOK}).OK() {
		t.Error("OK reply reports failure")
	}
}

func TestDataRoundTrip(t *testing.T) {
	m := &Data{
		Handle: 7, Mode: ModeSourceRoute, HopIndex: 2,
		Req:     policy.Request{Src: 1, Dst: 5},
		Route:   ad.Path{1, 3, 5},
		Payload: []byte("hello world"),
	}
	got := roundTrip(t, m).(*Data)
	if !reflect.DeepEqual(got, m) {
		t.Errorf("got %+v, want %+v", got, m)
	}
}

func TestDataHandleModeSmaller(t *testing.T) {
	// The whole point of ORWG handles: per-packet header shrinks.
	payload := bytes.Repeat([]byte{0xAB}, 64)
	full := &Data{Mode: ModeSourceRoute, Req: policy.Request{Src: 1, Dst: 9},
		Route: ad.Path{1, 2, 3, 4, 5, 6, 7, 8, 9}, Payload: payload}
	handle := &Data{Mode: ModeHandle, Handle: 99, Payload: payload}
	lf, lh := len(Marshal(full)), len(Marshal(handle))
	if lh >= lf {
		t.Errorf("handle-mode packet (%d) not smaller than source-route (%d)", lh, lf)
	}
}

func TestDataHeaderLen(t *testing.T) {
	for _, m := range []*Data{
		{Mode: ModeHandle, Payload: []byte("xyz")},
		{Mode: ModeSourceRoute, Route: ad.Path{1, 2, 3}, Payload: bytes.Repeat([]byte{1}, 100)},
		{Mode: ModeSourceRoute, Route: ad.Path{}},
	} {
		want := len(Marshal(m)) - len(m.Payload)
		if got := m.HeaderLen(); got != want {
			t.Errorf("HeaderLen = %d, want %d (route len %d)", got, want, len(m.Route))
		}
	}
}

// TestPVRouteLen holds PVRoute.Len to the encoder: a path vector's body is
// the route count's 2 bytes plus each route's Len.
func TestPVRouteLen(t *testing.T) {
	routes := []PVRoute{
		{Dest: 1, AllowedSources: policy.Universal()},
		{Dest: 2, Path: ad.Path{3, 4, 2}, AllowedSources: policy.SetOf(5, 6, 7), UCI: policy.AllClasses},
		{Dest: 8, Withdrawn: true, AllowedSources: policy.SetOf()},
	}
	body := 2
	for i := range routes {
		body += routes[i].Len()
		if got := len(Marshal(&PathVector{Routes: routes[:i+1]})); got != headerLen+body {
			t.Errorf("%d routes: frame %d bytes, Len sums to %d", i+1, got, headerLen+body)
		}
	}
}

func TestTeardownRoundTrip(t *testing.T) {
	got := roundTrip(t, &Teardown{Handle: 1234, Reason: TeardownRepair}).(*Teardown)
	if got.Handle != 1234 || got.Reason != TeardownRepair {
		t.Errorf("got %+v", got)
	}
	if got := roundTrip(t, &Teardown{Handle: 9}).(*Teardown); got.Reason != TeardownExplicit {
		t.Errorf("zero reason decoded as %d", got.Reason)
	}
}

func TestRefreshRoundTrip(t *testing.T) {
	m := &Refresh{Handle: 0xABCDEF0102030405, TTLMillis: 45000}
	got := roundTrip(t, m).(*Refresh)
	if !reflect.DeepEqual(got, m) {
		t.Errorf("got %+v, want %+v", got, m)
	}
}

func TestEGPRoundTrip(t *testing.T) {
	m := &EGPUpdate{Routes: []EGPRoute{{Dest: 1, Metric: 0}, {Dest: 2, Metric: 128}}}
	got := roundTrip(t, m).(*EGPUpdate)
	if !reflect.DeepEqual(got, m) {
		t.Errorf("got %+v, want %+v", got, m)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	valid := Marshal(&Teardown{Handle: 1})

	if _, err := Unmarshal(nil); !errors.Is(err, ErrTruncated) {
		t.Errorf("nil: err = %v", err)
	}
	if _, err := Unmarshal(valid[:2]); !errors.Is(err, ErrTruncated) {
		t.Errorf("short header: err = %v", err)
	}
	badVer := append([]byte{}, valid...)
	badVer[0] = 99
	if _, err := Unmarshal(badVer); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version: err = %v", err)
	}
	badType := append([]byte{}, valid...)
	badType[1] = 250
	if _, err := Unmarshal(badType); !errors.Is(err, ErrUnknownType) {
		t.Errorf("bad type: err = %v", err)
	}
	if _, err := Unmarshal(valid[:len(valid)-1]); !errors.Is(err, ErrTruncated) {
		t.Errorf("short body: err = %v", err)
	}
	trailing := append(append([]byte{}, valid...), 0)
	if _, err := Unmarshal(trailing); !errors.Is(err, ErrTrailing) {
		t.Errorf("trailing: err = %v", err)
	}
}

func TestUnmarshalBodyTruncationEveryPrefix(t *testing.T) {
	// Every strict prefix of a valid message must fail cleanly, never
	// panic. This sweeps the reader's bounds checks.
	msgs := []Message{
		&DVUpdate{Routes: []DVRoute{{Dest: 1, Metric: 2}}},
		&PathVector{Routes: []PVRoute{{Dest: 1, Path: ad.Path{1, 2}, AllowedSources: policy.SetOf(1)}}},
		&LSA{Origin: 1, Seq: 1, Links: []LSALink{{Neighbor: 2, Cost: 1, Up: true}}, Terms: []policy.Term{testTerm()}},
		&Setup{Handle: 1, Route: ad.Path{1, 2}, TermKeys: []policy.Key{{Advertiser: 1, Serial: 1}}, TTLMillis: 1000},
		&SetupReply{Handle: 1},
		&Data{Route: ad.Path{1}, Payload: []byte("abc")},
		&Teardown{Handle: 1, Reason: TeardownRepair},
		&EGPUpdate{Routes: []EGPRoute{{Dest: 1}}},
		&Refresh{Handle: 1, TTLMillis: 500},
	}
	for _, m := range msgs {
		full := Marshal(m)
		for cut := 4; cut < len(full); cut++ {
			truncated := append([]byte{}, full[:cut]...)
			// Fix up the declared body length so the header is
			// consistent with the truncation; the body itself is
			// still short for the decoder.
			truncated[2] = byte((cut - 4) >> 8)
			truncated[3] = byte(cut - 4)
			if _, err := Unmarshal(truncated); err == nil {
				// Some prefixes decode cleanly (e.g. count=0);
				// that is acceptable as long as nothing panics,
				// but a full count with missing entries must
				// error. We only require no panic here.
				continue
			}
		}
	}
}

func TestPropertyDVRoundTrip(t *testing.T) {
	f := func(dests []uint32, metric uint32, qos, flags uint8) bool {
		m := &DVUpdate{}
		for _, d := range dests {
			m.Routes = append(m.Routes, DVRoute{Dest: ad.ID(d), Metric: metric, QOS: policy.QOS(qos), Flags: flags})
		}
		if len(m.Routes) > 1000 {
			return true
		}
		got, err := Unmarshal(Marshal(m))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertySetupRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		routeLen := rng.Intn(10)
		m := &Setup{Handle: rng.Uint64(), Req: policy.Request{
			Src: ad.ID(rng.Uint32()), Dst: ad.ID(rng.Uint32()),
			QOS: policy.QOS(rng.Intn(32)), UCI: policy.UCI(rng.Intn(32)), Hour: uint8(rng.Intn(24)),
		}}
		for j := 0; j < routeLen; j++ {
			m.Route = append(m.Route, ad.ID(rng.Uint32()))
		}
		for j := 0; j < rng.Intn(5); j++ {
			m.TermKeys = append(m.TermKeys, policy.Key{Advertiser: ad.ID(rng.Uint32()), Serial: rng.Uint32()})
		}
		got, err := Unmarshal(Marshal(m))
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		g := got.(*Setup)
		if g.Handle != m.Handle || !g.Route.Equal(m.Route) || len(g.TermKeys) != len(m.TermKeys) {
			t.Fatalf("iteration %d: mismatch", i)
		}
	}
}

func TestPropertyLSATermRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	randSet := func() policy.ADSet {
		if rng.Intn(2) == 0 {
			return policy.Universal()
		}
		n := rng.Intn(5)
		ids := make([]ad.ID, n)
		for i := range ids {
			ids[i] = ad.ID(rng.Uint32())
		}
		return policy.SetOf(ids...)
	}
	for i := 0; i < 200; i++ {
		tm := policy.Term{
			Advertiser: ad.ID(rng.Uint32()), Serial: rng.Uint32(),
			Sources: randSet(), Dests: randSet(), PrevADs: randSet(), NextADs: randSet(),
			QOS: policy.ClassSet(rng.Uint32()), UCI: policy.ClassSet(rng.Uint32()),
			Hours: policy.HourWindow{Start: uint8(rng.Intn(24)), End: uint8(rng.Intn(25))},
			Cost:  rng.Uint32(),
		}
		m := &LSA{Origin: 1, Seq: uint32(i), Terms: []policy.Term{tm}}
		got, err := Unmarshal(Marshal(m))
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		// A set has one representation, so a decoded term is the term.
		if g := got.(*LSA).Terms[0]; !reflect.DeepEqual(g, tm) {
			t.Fatalf("iteration %d: term mismatch:\n got %+v\nwant %+v", i, g, tm)
		}
	}
}

func TestMsgTypeString(t *testing.T) {
	types := []MsgType{TypeDVUpdate, TypePathVector, TypeLSA, TypeSetup,
		TypeSetupReply, TypeData, TypeTeardown, TypeEGP, TypeRefresh, MsgType(99)}
	for _, typ := range types {
		if typ.String() == "" {
			t.Errorf("MsgType(%d).String() empty", typ)
		}
	}
}

func TestMarshalTooLargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("oversized message did not panic")
		}
	}()
	m := &DVUpdate{Routes: make([]DVRoute, 7000)} // 7000*10 > 65535
	Marshal(m)
}

// hostileCounts are frames whose element counts promise far more than their
// bodies hold. Shared with FuzzDecode's seeds.
func hostileCounts() [][]byte {
	frame := func(t MsgType, body ...byte) []byte {
		return append([]byte{Version, byte(t), byte(len(body) >> 8), byte(len(body))}, body...)
	}
	zeros := func(n int, tail ...byte) []byte { return append(make([]byte, n), tail...) }
	return [][]byte{
		// 15 bytes: a QueryReply (ID, found) whose path claims 65535 hops.
		frame(TypeQueryReply, zeros(8, 1, 0xff, 0xff)...),
		// 23 bytes: a Plan (ID, commit, plan ID) claiming 65535 steps.
		frame(TypePlan, zeros(17, 0xff, 0xff)...),
		// A path-vector route (dest, metric, qos, flags, empty path) whose
		// explicit source set claims 65535 members ahead of its UCI mask.
		frame(TypePathVector, append([]byte{0, 1}, zeros(12, 0, 0xff, 0xff, 0, 0, 0, 0)...)...),
		// Element counts with nothing behind them, one per remaining slice.
		frame(TypeDVUpdate, 0xff, 0xff),
		frame(TypeEGP, 0xff, 0xff),
		frame(TypeLSA, zeros(8, 0xff, 0xff)...),
		frame(TypeLSA, zeros(10, 0xff, 0xff)...),
		frame(TypeSetup, zeros(21, 0xff, 0xff)...),
		frame(TypeSyncEntry, zeros(23, 0xff, 0xff)...),
		frame(TypeSyncEntry, zeros(25, 0xff, 0xff)...),
		// A step (op, A, B) claiming 65535 terms: in a Control after the ID,
		// in a Plan after its one-step count, in a SyncEntry after the put.
		frame(TypeControl, zeros(17, 0xff, 0xff)...),
		frame(TypePlan, append(zeros(17, 0, 1), zeros(9, 0xff, 0xff)...)...),
		frame(TypeSyncEntry, zeros(36, 0xff, 0xff)...),
	}
}

// TestDecodeAllocationBoundedByBytesPresent: a count off the wire is not an
// allocation size. Before the bound a 15-byte QueryReply cost 256 KiB and a
// 23-byte Plan 1 MiB, ahead of any check the session makes.
func TestDecodeAllocationBoundedByBytesPresent(t *testing.T) {
	frames := hostileCounts()
	const rounds = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		for _, f := range frames {
			if _, err := Unmarshal(f); !errors.Is(err, ErrTruncated) {
				t.Fatalf("frame % x: err = %v, want ErrTruncated", f, err)
			}
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / uint64(rounds*len(frames)); per > 1024 {
		t.Errorf("a hostile frame of at most %d bytes made decode allocate %d bytes", len(frames[1]), per)
	}
}

func TestAppendMessageTooLarge(t *testing.T) {
	// A text whose length wraps the 16-bit field fails as surely as one
	// that does not.
	for _, n := range []int{MaxBody, 1<<16 + 7} {
		big := &DataOpReply{ID: 7, Op: OpState, Text: strings.Repeat("x", n)}
		dst := Marshal(&Drain{ID: 1})
		want := append([]byte(nil), dst...)
		got, err := AppendMessage(dst, big)
		if !errors.Is(err, ErrTooLarge) {
			t.Fatalf("%d-byte text: err = %v, want ErrTooLarge", n, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("dst changed by a failed append: %d bytes, want the %d it had", len(got), len(want))
		}
		if err := WriteMessage(&bytes.Buffer{}, big); !errors.Is(err, ErrTooLarge) {
			t.Errorf("WriteMessage of a %d-byte text: err = %v, want ErrTooLarge", n, err)
		}
	}
	// The largest body that fits still encodes and decodes.
	fits := &DataOpReply{ID: 7, Text: strings.Repeat("x", MaxBody-8-2-8-2-16-2)}
	buf, err := AppendMessage(nil, fits)
	if err != nil {
		t.Fatal(err)
	}
	if m, err := Unmarshal(buf); err != nil || !reflect.DeepEqual(m, fits) {
		t.Errorf("largest frame did not round-trip: %v", err)
	}
}

// TestUnmarshalIntoReusedValue decodes every seed frame of a type, forward
// and then backward, into one value of that type: each decode must re-encode
// to its frame, so no field can keep what the previous frame left there.
func TestUnmarshalIntoReusedValue(t *testing.T) {
	reused := map[MsgType]Message{}
	seeds := fuzzSeeds()
	for _, order := range []int{1, -1} {
		for i := range seeds {
			if order < 0 {
				i = len(seeds) - 1 - i
			}
			frame := Marshal(seeds[i])
			typ := seeds[i].Type()
			if reused[typ] == nil {
				reused[typ] = messageTypes[typ].new()
			}
			if err := UnmarshalInto(frame, reused[typ]); err != nil {
				t.Fatalf("%v seed %d: %v", typ, i, err)
			}
			if got := Marshal(reused[typ]); !bytes.Equal(got, frame) {
				t.Errorf("%v seed %d: reused decode re-encodes to\n%x, want\n%x", typ, i, got, frame)
			}
		}
	}
	frame := Marshal(&DVUpdate{Routes: []DVRoute{{Dest: 1}}})
	if err := UnmarshalInto(frame, &PathVector{}); !errors.Is(err, ErrUnknownType) {
		t.Errorf("DVUpdate frame into a PathVector: %v, want ErrUnknownType", err)
	}
	if err := UnmarshalInto(frame[:len(frame)-1], &DVUpdate{}); !errors.Is(err, ErrTruncated) {
		t.Errorf("short frame: %v, want ErrTruncated", err)
	}
	if err := UnmarshalInto(append(frame, 0), &DVUpdate{}); !errors.Is(err, ErrTrailing) {
		t.Errorf("long frame: %v, want ErrTrailing", err)
	}
}

// TestPeekLSA holds PeekLSA to the origin and sequence number a full decode
// reads, and to refusing anything that is not one whole LSA frame.
func TestPeekLSA(t *testing.T) {
	for _, m := range []*LSA{
		{Origin: 4, Seq: 17, Links: []LSALink{{Neighbor: 1, Cost: 2, Up: true}}, Terms: []policy.Term{testTerm()}},
		{Origin: 4294967295, Seq: 1},
		{},
	} {
		frame := Marshal(m)
		origin, seq, ok := PeekLSA(frame)
		if !ok || origin != m.Origin || seq != m.Seq {
			t.Errorf("PeekLSA(%v/%v) = %v/%v, %v", m.Origin, m.Seq, origin, seq, ok)
		}
		for _, bad := range [][]byte{frame[:len(frame)-1], append(frame, 0), frame[:headerLen+7]} {
			if _, _, ok := PeekLSA(bad); ok {
				t.Errorf("PeekLSA accepted a %d-byte cut of a %d-byte frame", len(bad), len(frame))
			}
		}
	}
	if _, _, ok := PeekLSA(Marshal(&DVUpdate{Routes: []DVRoute{{Dest: 1}, {Dest: 2}}})); ok {
		t.Error("PeekLSA accepted a DVUpdate frame")
	}
}

// TestAllocsSetTable: every route decoded through one table holds one
// copy of each distinct set, and a decode whose sets the table holds
// allocates nothing once the update's lists are warm.
func TestAllocsSetTable(t *testing.T) {
	set := policy.SetOf(9, 3, 5)
	frame := Marshal(&PathVector{Routes: []PVRoute{
		{Dest: 1, Path: ad.Path{2, 1}, AllowedSources: set},
		{Dest: 4, Path: ad.Path{2, 4}, AllowedSources: policy.Universal()},
		{Dest: 6, Path: ad.Path{2, 6}, AllowedSources: policy.SetOf(3, 5, 9, 3)},
	}})
	var sets SetTable
	var a, b PathVector
	if err := sets.UnmarshalInto(frame, &a); err != nil {
		t.Fatal(err)
	}
	if err := sets.UnmarshalInto(frame, &b); err != nil {
		t.Fatal(err)
	}
	members := func(s policy.ADSet) uintptr { return reflect.ValueOf(s).FieldByName("ids").Pointer() }
	shared := members(a.Routes[0].AllowedSources)
	for _, rs := range [][]PVRoute{a.Routes, b.Routes} {
		for _, i := range []int{0, 2} {
			if got := rs[i].AllowedSources; !got.Equal(set) || members(got) != shared {
				t.Errorf("route to %v: sources %v, not the table's copy of %v", rs[i].Dest, got, set)
			}
		}
	}
	if len(sets.sets) != 1 || !b.Routes[1].AllowedSources.IsUniversal() {
		t.Errorf("table holds %d sets, want only the explicit one", len(sets.sets))
	}
	if !reflect.DeepEqual(b, a) || a.sets != nil {
		t.Errorf("second decode %+v, first %+v", b, a)
	}
	if racecheck.Enabled {
		return
	}
	if n := testing.AllocsPerRun(100, func() { _ = sets.UnmarshalInto(frame, &b) }); n != 0 {
		t.Errorf("decode through a warm table: %v allocs, want 0", n)
	}
}

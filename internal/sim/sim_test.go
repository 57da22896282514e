package sim

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/ad"
	"repro/internal/policy"
	"repro/internal/racecheck"
	"repro/internal/wire"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(10, func() { order = append(order, 1) })
	e.At(5, func() { order = append(order, 0) })
	e.At(10, func() { order = append(order, 2) }) // same time: FIFO by seq
	e.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Errorf("order = %v, want [0 1 2]", order)
	}
	if e.Now() != 10 {
		t.Errorf("Now = %v, want 10", e.Now())
	}
	if e.Processed != 3 {
		t.Errorf("Processed = %d, want 3", e.Processed)
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.At(1, func() {
		e.After(2, func() { fired = append(fired, e.Now()) })
		e.After(1, func() { fired = append(fired, e.Now()) })
	})
	e.Run()
	if len(fired) != 2 || fired[0] != 2 || fired[1] != 3 {
		t.Errorf("fired = %v, want [2 3]", fired)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.At(5, func() { ran++ })
	e.At(15, func() { ran++ })
	now := e.RunUntil(10)
	if ran != 1 {
		t.Errorf("ran = %d, want 1", ran)
	}
	if now != 10 {
		t.Errorf("RunUntil returned %v, want 10", now)
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", e.Pending())
	}
	e.Run()
	if ran != 2 {
		t.Errorf("after Run, ran = %d, want 2", ran)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	e.At(5, func() {})
}

func TestTimeString(t *testing.T) {
	if got := (2*Second + 5*Microsecond).String(); got != "2.000005s" {
		t.Errorf("Time.String = %q", got)
	}
}

// echoNode replies "pong" to any message containing "ping".
type echoNode struct {
	id       ad.ID
	received []string
	downs    []ad.ID
	ups      []ad.ID
}

func (n *echoNode) ID() ad.ID         { return n.id }
func (n *echoNode) Start(nw *Network) {}
func (n *echoNode) Receive(nw *Network, from ad.ID, payload []byte) {
	n.received = append(n.received, string(payload))
	if string(payload) == "ping" {
		nw.Send(n.id, from, []byte("pong"))
	}
}
func (n *echoNode) LinkDown(nw *Network, nb ad.ID) { n.downs = append(n.downs, nb) }
func (n *echoNode) LinkUp(nw *Network, nb ad.ID)   { n.ups = append(n.ups, nb) }

func twoNodeNet(t *testing.T) (*Network, *echoNode, *echoNode) {
	t.Helper()
	g := ad.NewGraph()
	a := g.AddAD("a", ad.Stub, ad.Campus)
	b := g.AddAD("b", ad.Stub, ad.Campus)
	if err := g.AddLink(ad.Link{A: a, B: b, DelayMicros: int64(5 * Millisecond)}); err != nil {
		t.Fatal(err)
	}
	nw := NewNetwork(g)
	na := &echoNode{id: a}
	nb := &echoNode{id: b}
	nw.AddNode(na)
	nw.AddNode(nb)
	return nw, na, nb
}

func TestNetworkSendDelivery(t *testing.T) {
	nw, na, nb := twoNodeNet(t)
	if !nw.Send(na.id, nb.id, []byte("ping")) {
		t.Fatal("Send = false")
	}
	nw.Engine.Run()
	if len(nb.received) != 1 || nb.received[0] != "ping" {
		t.Errorf("b received %v", nb.received)
	}
	if len(na.received) != 1 || na.received[0] != "pong" {
		t.Errorf("a received %v", na.received)
	}
	if nw.Stats.MessagesSent != 2 {
		t.Errorf("MessagesSent = %d, want 2", nw.Stats.MessagesSent)
	}
	if nw.Stats.BytesSent != 8 {
		t.Errorf("BytesSent = %d, want 8", nw.Stats.BytesSent)
	}
	// Delay is 5ms each way.
	if nw.Engine.Now() != 10*Millisecond {
		t.Errorf("final time = %v, want 10ms", nw.Engine.Now())
	}
}

func TestNetworkSendNonAdjacent(t *testing.T) {
	nw, na, _ := twoNodeNet(t)
	if nw.Send(na.id, 99, []byte("x")) {
		t.Error("Send to non-adjacent returned true")
	}
	if nw.Stats.MessagesDropped != 1 {
		t.Errorf("drops = %d, want 1", nw.Stats.MessagesDropped)
	}
}

func TestNetworkFailLink(t *testing.T) {
	nw, na, nb := twoNodeNet(t)
	if err := nw.FailLink(na.id, nb.id); err != nil {
		t.Fatal(err)
	}
	if len(na.downs) != 1 || na.downs[0] != nb.id {
		t.Errorf("a downs = %v", na.downs)
	}
	if len(nb.downs) != 1 || nb.downs[0] != na.id {
		t.Errorf("b downs = %v", nb.downs)
	}
	if nw.Send(na.id, nb.id, []byte("ping")) {
		t.Error("Send over failed link returned true")
	}
	if nw.LinkIsUp(na.id, nb.id) {
		t.Error("LinkIsUp after failure")
	}
	// Idempotent failure.
	if err := nw.FailLink(na.id, nb.id); err != nil {
		t.Errorf("second FailLink: %v", err)
	}
	if len(na.downs) != 1 {
		t.Errorf("second FailLink re-notified: %v", na.downs)
	}
	if err := nw.RestoreLink(na.id, nb.id); err != nil {
		t.Fatal(err)
	}
	if len(na.ups) != 1 {
		t.Errorf("a ups = %v", na.ups)
	}
	if !nw.LinkIsUp(na.id, nb.id) {
		t.Error("LinkIsUp after restore = false")
	}
	if err := nw.FailLink(1, 42); err == nil {
		t.Error("FailLink on absent link: want error")
	}
}

func TestNetworkInFlightLossOnFailure(t *testing.T) {
	nw, na, nb := twoNodeNet(t)
	nw.Send(na.id, nb.id, []byte("ping"))
	// Fail the link while the message is in flight.
	nw.Engine.At(1*Millisecond, func() { nw.FailLink(na.id, nb.id) })
	nw.Engine.Run()
	if len(nb.received) != 0 {
		t.Errorf("message delivered over failed link: %v", nb.received)
	}
	if nw.Stats.MessagesDropped == 0 {
		t.Error("in-flight loss not counted as drop")
	}
}

func TestNetworkInFlightLossAcrossRestore(t *testing.T) {
	// A message in flight when the link fails must not be delivered even
	// if the link is restored before its arrival time (epoch check).
	nw, na, nb := twoNodeNet(t)
	nw.Send(na.id, nb.id, []byte("ping"))
	nw.Engine.At(1*Millisecond, func() {
		nw.FailLink(na.id, nb.id)
		nw.RestoreLink(na.id, nb.id)
	})
	nw.Engine.Run()
	if len(nb.received) != 0 {
		t.Errorf("stale in-flight message delivered after restore: %v", nb.received)
	}
}

func TestNetworkFlood(t *testing.T) {
	g := ad.NewGraph()
	hub := g.AddAD("hub", ad.Transit, ad.Backbone)
	var leaves []ad.ID
	for i := 0; i < 4; i++ {
		leaf := g.AddAD("leaf", ad.Stub, ad.Campus)
		leaves = append(leaves, leaf)
		if err := g.AddLink(ad.Link{A: hub, B: leaf}); err != nil {
			t.Fatal(err)
		}
	}
	nw := NewNetwork(g)
	hn := &echoNode{id: hub}
	nw.AddNode(hn)
	var leafNodes []*echoNode
	for _, l := range leaves {
		n := &echoNode{id: l}
		leafNodes = append(leafNodes, n)
		nw.AddNode(n)
	}
	sent := nw.Flood(hub, []byte("x"), leaves[0])
	if sent != 3 {
		t.Errorf("Flood sent %d, want 3 (one skipped)", sent)
	}
	nw.Engine.Run()
	if len(leafNodes[0].received) != 0 {
		t.Error("skipped neighbor received flood")
	}
	for _, n := range leafNodes[1:] {
		if len(n.received) != 1 {
			t.Errorf("leaf %v received %d, want 1", n.id, len(n.received))
		}
	}
}

func TestNetworkUpNeighbors(t *testing.T) {
	nw, na, nb := twoNodeNet(t)
	if got := nw.UpNeighbors(na.id); len(got) != 1 || got[0] != nb.id {
		t.Errorf("UpNeighbors = %v", got)
	}
	nw.FailLink(na.id, nb.id)
	if got := nw.UpNeighbors(na.id); len(got) != 0 {
		t.Errorf("UpNeighbors after failure = %v", got)
	}
}

func TestNetworkDuplicateNodePanics(t *testing.T) {
	nw, na, _ := twoNodeNet(t)
	defer func() {
		if recover() == nil {
			t.Error("duplicate AddNode did not panic")
		}
	}()
	nw.AddNode(&echoNode{id: na.id})
}

func TestNetworkPayloadIsolation(t *testing.T) {
	// The network must copy payloads so sender reuse of the buffer cannot
	// corrupt in-flight messages.
	nw, na, nb := twoNodeNet(t)
	buf := []byte("ping")
	nw.Send(na.id, nb.id, buf)
	buf[0] = 'X'
	nw.Engine.Run()
	if nb.received[0] != "ping" {
		t.Errorf("payload mutated in flight: %q", nb.received[0])
	}
}

func TestRunToQuiescence(t *testing.T) {
	nw, na, nb := twoNodeNet(t)
	nw.Send(na.id, nb.id, []byte("ping"))
	conv, ok := nw.RunToQuiescence(1 * Second)
	if !ok {
		t.Error("RunToQuiescence reported not quiescent")
	}
	// The last send is the pong at t=5ms.
	if conv != 5*Millisecond {
		t.Errorf("convergence time = %v, want 5ms", conv)
	}
}

// startNode is an echoNode that counts its Start calls, logs its AD to
// order, and pings its neighbours from Start.
type startNode struct {
	echoNode
	starts int
	order  *[]ad.ID
}

func (n *startNode) Start(nw *Network) {
	n.starts++
	*n.order = append(*n.order, n.id)
	nw.Flood(n.id, []byte("ping"))
}

// TestRunToQuiescenceStartsOnce: the first run starts every node, in AD
// order, before delivering anything; a second run starts none again.
func TestRunToQuiescenceStartsOnce(t *testing.T) {
	g := ad.NewGraph()
	a := g.AddAD("a", ad.Stub, ad.Campus)
	b := g.AddAD("b", ad.Transit, ad.Regional)
	c := g.AddAD("c", ad.Stub, ad.Campus)
	for _, l := range []ad.Link{{A: a, B: b}, {A: b, B: c}} {
		if err := g.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	nw := NewNetwork(g)
	var order []ad.ID
	var nodes []*startNode
	ids := g.IDs()
	for i := len(ids) - 1; i >= 0; i-- {
		n := &startNode{echoNode: echoNode{id: ids[i]}, order: &order}
		nodes = append(nodes, n)
		nw.AddNode(n)
	}
	for run := 1; run <= 2; run++ {
		if _, ok := nw.RunToQuiescence(Second); !ok {
			t.Fatalf("run %d did not quiesce", run)
		}
		for _, n := range nodes {
			if n.starts != 1 {
				t.Errorf("run %d: %v started %d times, want 1", run, n.id, n.starts)
			}
		}
	}
	if !ad.Path(order).Equal(ids) {
		t.Errorf("start order = %v, want %v", order, ids)
	}
	for _, n := range nodes {
		if !slices.Contains(n.received, "ping") {
			t.Errorf("%v received no ping from a neighbour's Start: %v", n.id, n.received)
		}
	}
}

func TestNodesSorted(t *testing.T) {
	nw, na, nb := twoNodeNet(t)
	nodes := nw.Nodes()
	if len(nodes) != 2 || nodes[0].ID() != na.id || nodes[1].ID() != nb.id {
		t.Errorf("Nodes() order wrong: %v %v", nodes[0].ID(), nodes[1].ID())
	}
}

// TestGraphMovedUnderNetworkPanics: a network numbers its graph's links
// once, so a graph mutated under it (instead of FailLink/RestoreLink) is a
// harness bug the next Send reports, not a silently wrong delivery.
func TestGraphMovedUnderNetworkPanics(t *testing.T) {
	nw, na, nb := twoNodeNet(t)
	if !nw.Send(na.id, nb.id, []byte("ping")) {
		t.Fatal("Send = false")
	}
	nw.Graph.RemoveLink(na.id, nb.id)
	defer func() {
		if r := recover(); r == nil {
			t.Error("Send after the graph lost a link did not panic")
		}
	}()
	nw.Send(na.id, nb.id, []byte("ping"))
}

// TestAddNodeOutsideGraphPanics: nodes are held by graph position, so a node
// for an AD the graph lacks is refused like a duplicate.
func TestAddNodeOutsideGraphPanics(t *testing.T) {
	nw, _, _ := twoNodeNet(t)
	defer func() {
		if recover() == nil {
			t.Error("AddNode for an AD outside the graph did not panic")
		}
	}()
	nw.AddNode(&echoNode{id: 99})
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, Time) {
		nw, na, nb := twoNodeNet(t)
		for i := 0; i < 10; i++ {
			nw.Send(na.id, nb.id, []byte("ping"))
		}
		nw.Engine.Run()
		return nw.Stats.MessagesSent, nw.Engine.Now()
	}
	m1, t1 := run()
	m2, t2 := run()
	if m1 != m2 || t1 != t2 {
		t.Errorf("non-deterministic: (%d,%v) vs (%d,%v)", m1, t1, m2, t2)
	}
}

// TestBytesByType checks that Send splits BytesSent by each frame's wire
// type.
func TestBytesByType(t *testing.T) {
	nw, na, nb := twoNodeNet(t)
	refresh := wire.Marshal(&wire.Refresh{Handle: 7, TTLMillis: 100})
	dataMsg := &wire.Data{Handle: 7, Mode: wire.ModeHandle, Payload: make([]byte, 64)}
	data := wire.Marshal(dataMsg)
	nw.Send(na.id, nb.id, refresh)
	nw.Send(nb.id, na.id, refresh)
	nw.SendMessage(na.id, nb.id, dataMsg)
	nw.Engine.Run()
	var want [256]uint64
	want[wire.TypeRefresh] = uint64(2 * len(refresh))
	want[wire.TypeData] = uint64(len(data))
	if nw.Stats.BytesByType != want {
		t.Errorf("refresh %d B, data %d B; want %d and %d", nw.Stats.BytesByType[wire.TypeRefresh],
			nw.Stats.BytesByType[wire.TypeData], want[wire.TypeRefresh], want[wire.TypeData])
	}
	if total := want[wire.TypeRefresh] + want[wire.TypeData]; nw.Stats.BytesSent != total {
		t.Errorf("BytesSent = %d, want %d", nw.Stats.BytesSent, total)
	}
}

// TestTraceCallback checks that a delivered frame's trace line names its
// wire type.
func TestTraceCallback(t *testing.T) {
	nw, na, nb := twoNodeNet(t)
	var lines []string
	nw.Trace = func(format string, args ...interface{}) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	nw.SendMessage(na.id, nb.id, &wire.Teardown{Handle: 1})
	nw.Engine.Run()
	want := fmt.Sprintf("0.005000s teardown %v->%v %dB", na.id, nb.id, len(wire.Marshal(&wire.Teardown{Handle: 1})))
	if len(lines) != 1 || lines[0] != want {
		t.Errorf("trace = %q, want [%q]", lines, want)
	}
}

func TestMaxQueuedPending(t *testing.T) {
	nw, na, nb := twoNodeNet(t)
	for i := 0; i < 5; i++ {
		nw.Send(na.id, nb.id, []byte("p"))
	}
	if nw.Stats.MaxQueuedPending < 5 {
		t.Errorf("MaxQueuedPending = %d, want >= 5", nw.Stats.MaxQueuedPending)
	}
	if nw.lastSend != 0 {
		t.Errorf("LastSend = %v, want 0 (all sends at t=0)", nw.lastSend)
	}
}

func TestSerializationDelayAndFIFO(t *testing.T) {
	g := ad.NewGraph()
	a := g.AddAD("a", ad.Stub, ad.Campus)
	b := g.AddAD("b", ad.Stub, ad.Campus)
	// 1ms propagation, 8000 bps: a 100-byte message takes 100ms to clock
	// out — serialization dominates.
	if err := g.AddLink(ad.Link{A: a, B: b, DelayMicros: int64(1 * Millisecond), BandwidthBps: 8000}); err != nil {
		t.Fatal(err)
	}
	nw := NewNetwork(g)
	var arrivals []Time
	var order []byte
	nb := &recordNode{id: b, onRecv: func(p []byte, at Time) {
		arrivals = append(arrivals, at)
		order = append(order, p[0])
	}}
	nw.AddNode(&echoNode{id: a})
	nw.AddNode(nb)
	// A big message followed by a tiny one: without transmitter
	// bookkeeping the tiny one would overtake it.
	nw.Send(a, b, make([]byte, 100))
	nw.Send(a, b, []byte{9})
	nw.Engine.Run()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %d", len(arrivals))
	}
	// big: 100B*8/8000bps = 100ms tx + 1ms prop = 101ms.
	if arrivals[0] != 101*Millisecond {
		t.Errorf("big arrival = %v, want 101ms", arrivals[0])
	}
	// tiny: waits for transmitter until 100ms, + 1ms tx + 1ms prop = 102ms.
	if arrivals[1] != 102*Millisecond {
		t.Errorf("tiny arrival = %v, want 102ms", arrivals[1])
	}
	if order[0] != 0 || order[1] != 9 {
		t.Errorf("FIFO violated: order = %v", order)
	}
}

// bandwidthPair builds a two-node network whose link has 1ms propagation
// delay and an 8000 bps transmitter: a 100-byte message takes 100ms to clock
// out, so serialization dominates and transmitter state is observable.
func bandwidthPair(t *testing.T) (*Network, ad.ID, ad.ID) {
	t.Helper()
	g := ad.NewGraph()
	a := g.AddAD("a", ad.Stub, ad.Campus)
	b := g.AddAD("b", ad.Stub, ad.Campus)
	if err := g.AddLink(ad.Link{A: a, B: b, DelayMicros: int64(1 * Millisecond), BandwidthBps: 8000}); err != nil {
		t.Fatal(err)
	}
	return NewNetwork(g), a, b
}

func TestFailLinkResetsTransmitterState(t *testing.T) {
	// Regression: FailLink must clear both directed busyUntil entries.
	// Before the fix, a message sent after fail+restore inherited the
	// serialization backlog of traffic queued before the failure and was
	// delayed by the stale busy-until time.
	nw, a, b := bandwidthPair(t)
	var arrivals []Time
	nw.AddNode(&recordNode{id: b, onRecv: func(p []byte, at Time) { arrivals = append(arrivals, at) }})
	nw.AddNode(&echoNode{id: a})
	// Two 100-byte messages at t=0 occupy the a->b transmitter until 200ms.
	nw.Send(a, b, make([]byte, 100))
	nw.Send(a, b, make([]byte, 100))
	nw.Engine.At(2*Millisecond, func() {
		if err := nw.FailLink(a, b); err != nil {
			t.Error(err)
		}
	})
	nw.Engine.At(3*Millisecond, func() {
		if err := nw.RestoreLink(a, b); err != nil {
			t.Error(err)
		}
	})
	nw.Engine.At(4*Millisecond, func() {
		// Post-restore the transmitter must be idle: 4ms + 100ms tx +
		// 1ms prop = 105ms, not 200ms backlog + 100ms + 1ms = 301ms.
		nw.Send(a, b, make([]byte, 100))
	})
	nw.Engine.Run()
	if len(arrivals) != 1 {
		t.Fatalf("arrivals = %v, want exactly the post-restore message", arrivals)
	}
	if arrivals[0] != 105*Millisecond {
		t.Errorf("post-restore arrival = %v, want 105ms (transmitter not reset)", arrivals[0])
	}
	// The two pre-failure messages were lost (epoch), not delivered late.
	if nw.Stats.MessagesDropped != 2 {
		t.Errorf("drops = %d, want 2 in-flight losses", nw.Stats.MessagesDropped)
	}
}

func TestLastSendIncludesSerialization(t *testing.T) {
	// Regression: Send used to record lastSend = Now() even though the
	// transmission finishes clocking out at start+tx, under-reporting
	// convergence time on bandwidth-limited links.
	nw, a, b := bandwidthPair(t)
	nw.AddNode(&echoNode{id: a})
	nw.AddNode(&recordNode{id: b, onRecv: func([]byte, Time) {}})
	nw.Send(a, b, make([]byte, 100)) // clocks out at 100ms
	nw.Send(a, b, make([]byte, 100)) // queued: clocks out at 200ms
	if nw.lastSend != 200*Millisecond {
		t.Errorf("LastSend = %v, want 200ms (transmission completion)", nw.lastSend)
	}
	conv, ok := nw.RunToQuiescence(1 * Second)
	if !ok {
		t.Fatal("not quiescent")
	}
	if conv != 200*Millisecond {
		t.Errorf("convergence = %v, want 200ms", conv)
	}
}

func TestLastSendMonotoneAcrossLinks(t *testing.T) {
	// A later quick send on a fast link must not regress the convergence
	// marker below an earlier long transmission still clocking out.
	g := ad.NewGraph()
	a := g.AddAD("a", ad.Stub, ad.Campus)
	b := g.AddAD("b", ad.Stub, ad.Campus)
	c := g.AddAD("c", ad.Stub, ad.Campus)
	if err := g.AddLink(ad.Link{A: a, B: b, DelayMicros: int64(Millisecond), BandwidthBps: 8000}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(ad.Link{A: a, B: c, DelayMicros: int64(Millisecond)}); err != nil {
		t.Fatal(err)
	}
	nw := NewNetwork(g)
	nw.Send(a, b, make([]byte, 100)) // clocks out at 100ms
	nw.Send(a, c, []byte("x"))       // clocks out immediately
	if nw.lastSend != 100*Millisecond {
		t.Errorf("LastSend = %v, want 100ms (must not regress)", nw.lastSend)
	}
}

func TestFIFOUnderSerializationManyMessages(t *testing.T) {
	// Mixed-size back-to-back messages must arrive in send order with
	// cumulative serialization delays.
	nw, a, b := bandwidthPair(t)
	var order []byte
	var arrivals []Time
	nw.AddNode(&echoNode{id: a})
	nw.AddNode(&recordNode{id: b, onRecv: func(p []byte, at Time) {
		order = append(order, p[len(p)-1])
		arrivals = append(arrivals, at)
	}})
	nw.Send(a, b, append(make([]byte, 49), 1))  // 50B: tx 50ms
	nw.Send(a, b, append(make([]byte, 9), 2))   // 10B: tx 10ms
	nw.Send(a, b, append(make([]byte, 199), 3)) // 200B: tx 200ms
	nw.Send(a, b, []byte{4})                    // 1B: tx 1ms
	nw.Engine.Run()
	wantOrder := []byte{1, 2, 3, 4}
	wantAt := []Time{51 * Millisecond, 61 * Millisecond, 261 * Millisecond, 262 * Millisecond}
	if len(order) != 4 {
		t.Fatalf("delivered %d messages", len(order))
	}
	for i := range wantOrder {
		if order[i] != wantOrder[i] {
			t.Errorf("delivery %d = message %d, want %d (FIFO violated)", i, order[i], wantOrder[i])
		}
		if arrivals[i] != wantAt[i] {
			t.Errorf("delivery %d at %v, want %v", i, arrivals[i], wantAt[i])
		}
	}
}

func TestInFlightLossOnFailFastRestoreEpoch(t *testing.T) {
	// Epoch semantics on a bandwidth-limited link: everything in flight or
	// queued at the failed transmitter is lost even when the link comes
	// back before the scheduled delivery times, while traffic sent after
	// the restore flows normally.
	nw, a, b := bandwidthPair(t)
	var got []byte
	nw.AddNode(&echoNode{id: a})
	nw.AddNode(&recordNode{id: b, onRecv: func(p []byte, at Time) { got = append(got, p[0]) }})
	nw.Send(a, b, append(make([]byte, 99), 1)) // delivery at 101ms
	nw.Send(a, b, append(make([]byte, 99), 2)) // delivery at 201ms
	nw.Engine.At(50*Millisecond, func() {
		nw.FailLink(a, b)
		nw.RestoreLink(a, b)
		nw.Send(a, b, []byte{3})
	})
	nw.Engine.Run()
	if len(got) != 1 || got[0] != 3 {
		t.Errorf("delivered = %v, want only the post-restore message", got)
	}
	if nw.Stats.MessagesDropped != 2 {
		t.Errorf("drops = %d, want 2", nw.Stats.MessagesDropped)
	}
}

func TestPayloadBufferReuseIsolation(t *testing.T) {
	// Recycled payload buffers must never leak stale bytes into a later
	// delivery: every Receive sees exactly the bytes passed to Send.
	nw, na, nb := twoNodeNet(t)
	msgs := []string{"alpha", "be", "gamma-gamma", "x"}
	var got []string
	nb.received = nil
	recv := &recordNode{id: nb.id, onRecv: func(p []byte, at Time) {
		got = append(got, string(p))
	}}
	nw.nodes[ad.Position(nw.ids, nb.id)] = recv // swap in a recorder for b
	for _, m := range msgs {
		nw.Send(na.id, nb.id, []byte(m))
		nw.Engine.Run()
	}
	if len(got) != len(msgs) {
		t.Fatalf("received %d messages, want %d", len(got), len(msgs))
	}
	for i, m := range msgs {
		if got[i] != m {
			t.Errorf("message %d = %q, want %q (buffer reuse corruption)", i, got[i], m)
		}
	}
}

// TestDeliveryBufferFitsItsMessage: a payload rides in a buffer of its own
// class, whatever larger messages the network carried before it, and
// RunToQuiescence leaves no pool behind once nothing is in flight.
func TestDeliveryBufferFitsItsMessage(t *testing.T) {
	nw, na, nb := twoNodeNet(t)
	var caps []int
	nw.nodes[ad.Position(nw.ids, nb.id)] = &recordNode{id: nb.id, onRecv: func(p []byte, _ Time) {
		caps = append(caps, cap(p))
	}}
	sizes := []int{65000, 100, 0, 3000, 100, 65539, 64, 65}
	for _, n := range sizes {
		nw.Send(na.id, nb.id, make([]byte, n))
		nw.Engine.Run()
	}
	want := []int{65536, 128, 64, 4096, 128, 131072, 64, 128}
	if !slices.Equal(caps, want) {
		t.Errorf("buffer sizes %v for payloads %v, want %v", caps, sizes, want)
	}
	nw.Send(na.id, nb.id, make([]byte, 100))
	if _, ok := nw.RunToQuiescence(Second); !ok {
		t.Fatal("did not quiesce")
	}
	for c, free := range nw.free {
		if len(free) > 0 {
			t.Errorf("class %d keeps %d records after quiescence", c, len(free))
		}
	}
}

// recordNode records payload arrivals with timestamps.
type recordNode struct {
	id     ad.ID
	onRecv func(p []byte, at Time)
}

func (n *recordNode) ID() ad.ID                      { return n.id }
func (n *recordNode) Start(nw *Network)              {}
func (n *recordNode) LinkDown(nw *Network, nb ad.ID) {}
func (n *recordNode) LinkUp(nw *Network, nb ad.ID)   {}
func (n *recordNode) Receive(nw *Network, from ad.ID, payload []byte) {
	n.onRecv(payload, nw.Now())
}

// TestAllocsSimSendMessage pins the message path at zero allocations once
// the network's pool is warm: SendMessage encodes a 20-route PathVector
// into a recycled delivery record and buffer, the event queue carries the
// record, and the receiver decodes into a value it reuses.
func TestAllocsSimSendMessage(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	g := ad.NewGraph()
	a := g.AddAD("a", ad.Stub, ad.Campus)
	b := g.AddAD("b", ad.Stub, ad.Campus)
	if err := g.AddLink(ad.Link{A: a, B: b}); err != nil {
		t.Fatal(err)
	}
	nw := NewNetwork(g)
	msg := &wire.PathVector{}
	for i := 0; i < 20; i++ {
		msg.Routes = append(msg.Routes, wire.PVRoute{
			Dest: ad.ID(100 + i), Metric: uint32(i), Path: ad.Path{a, ad.ID(50 + i), ad.ID(100 + i)},
			AllowedSources: policy.Universal(), UCI: policy.AllClasses,
		})
	}
	var rx wire.PathVector
	received := 0
	nw.AddNode(&recordNode{id: a, onRecv: func([]byte, Time) {}})
	nw.AddNode(&recordNode{id: b, onRecv: func(p []byte, _ Time) {
		if err := wire.UnmarshalInto(p, &rx); err != nil {
			t.Fatal(err)
		}
		received++
	}})
	if n := testing.AllocsPerRun(200, func() {
		nw.SendMessage(a, b, msg)
		nw.Engine.Run()
	}); n != 0 {
		t.Errorf("SendMessage + delivery: %v allocs, want 0", n)
	}
	if received != 201 || !bytes.Equal(wire.Marshal(&rx), wire.Marshal(msg)) {
		t.Errorf("received %d messages, last %+v; want 201 copies of the sent one", received, rx)
	}
}

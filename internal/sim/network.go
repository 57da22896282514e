package sim

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/ad"
	"repro/internal/wire"
)

// Node is the behaviour of one AD's routing entity (its route server /
// border gateway complex, abstracted to a single process per the paper's
// AD-level model).
//
// All callbacks run inside the event loop; implementations must not block.
// Receive's payload is a pooled buffer, valid only until Receive returns:
// the network hands it to a later message once the call is over, so a node
// decodes or copies what it keeps. Likewise SendMessage reads its message
// only during the call, so a sender may reuse the value at once.
type Node interface {
	// ID returns the AD this node represents.
	ID() ad.ID
	// Start is invoked once, when the network first runs, before any
	// messages.
	Start(nw *Network)
	// Receive is invoked when a protocol message from an adjacent AD
	// arrives. payload is the marshalled wire message.
	Receive(nw *Network, from ad.ID, payload []byte)
	// LinkDown is invoked when an incident link fails.
	LinkDown(nw *Network, neighbor ad.ID)
	// LinkUp is invoked when an incident link recovers.
	LinkUp(nw *Network, neighbor ad.ID)
}

// Stats aggregates traffic counters for a run. Counters are cumulative and
// never reset by the network itself.
type Stats struct {
	MessagesSent    uint64
	BytesSent       uint64
	MessagesDropped uint64 // sends attempted over down/absent links
	// BytesByType splits BytesSent by the frame's type byte: index it
	// with a wire.MsgType.
	BytesByType      [256]uint64
	MaxQueuedPending int
}

// Network couples the event engine, the AD graph, and the per-AD nodes, and
// simulates message transmission over inter-AD links with propagation delay.
//
// Links are FIFO: delay is constant per link, so delivery order matches send
// order. A link can be failed and restored during the run; messages in
// flight when a link fails are lost (they were "on the wire").
//
// A network's graph keeps its ADs and links for the network's life: the
// network numbers them once, at NewNetwork, and a failure goes through
// FailLink/RestoreLink, never through the graph. A graph whose Version
// moved under a network is a harness bug, and the network panics on it.
type Network struct {
	Engine *Engine
	Graph  *ad.Graph
	Stats  *Stats

	// gver is the graph's Version at NewNetwork.
	gver uint64
	// ids holds the graph's ADs in ascending order, and nodes, nbrs and
	// adj are indexed by an AD's position there: its registered node
	// (nil if none) and the graph's own sorted adjacency.
	ids   []ad.ID
	nodes []Node
	nbrs  [][]ad.ID
	adj   [][]ad.Link
	// The directed edges out of the AD at position p are numbered
	// edgeOff[p] on, in its adjacency order, and the per-edge state below
	// is indexed by that number.
	edgeOff []int32
	// down marks both directions of a failed link; numDown counts the
	// failed links.
	down    []bool
	numDown int
	// linkEpoch increments, in both directions, on each link failure;
	// in-flight messages stamped with an older epoch for their edge are
	// dropped on delivery.
	linkEpoch []uint64
	// busyUntil tracks each directed link's transmitter: a message may
	// not start serializing before the previous one finished, which
	// keeps links FIFO even with size-dependent transmission delays.
	// FailLink clears both directions so a restored link starts with an
	// idle transmitter instead of inheriting pre-failure backlog.
	busyUntil []Time

	// free recycles the in-flight records the event queue carries, each
	// with its payload buffer, by buffer class: free[c] holds records whose
	// buffer has room for 1<<c bytes (see bufClass), so a message rides in
	// a buffer at most twice its size. The Node contract forbids retaining
	// the payload beyond Receive, so a delivered (or dropped) message's
	// record and buffer can carry a later Send. RunToQuiescence drops the
	// pool when it leaves the queue empty.
	free [maxClass + 1][]*delivery
	// encBuf is Encode's buffer.
	encBuf []byte

	// DefaultDelay is used for links whose DelayMicros is zero.
	DefaultDelay Time

	// lastSend records the latest transmission-completion time over all
	// Sends (start of serialization plus transmission delay), used by
	// convergence detection.
	lastSend Time
	// started is set once the first RunToQuiescence has started the nodes.
	started bool

	// Trace, if non-nil, receives a line per delivered message. Used by
	// tests and the CLI's -trace flag.
	Trace func(format string, args ...interface{})
}

// NewNetwork builds a network over graph with all links initially up. The
// graph must keep its ADs and links for the network's life.
func NewNetwork(g *ad.Graph) *Network {
	ids := g.IDs()
	nw := &Network{
		Engine:       NewEngine(),
		Graph:        g,
		Stats:        new(Stats),
		gver:         g.Version(),
		ids:          ids,
		nodes:        make([]Node, len(ids)),
		nbrs:         make([][]ad.ID, len(ids)),
		adj:          make([][]ad.Link, len(ids)),
		edgeOff:      make([]int32, len(ids)),
		DefaultDelay: 10 * Millisecond,
	}
	edges := int32(0)
	for p, id := range ids {
		nw.nbrs[p], nw.adj[p] = g.Neighbors(id), g.Incident(id)
		nw.edgeOff[p] = edges
		edges += int32(len(nw.nbrs[p]))
	}
	nw.down = make([]bool, edges)
	nw.linkEpoch = make([]uint64, edges)
	nw.busyUntil = make([]Time, edges)
	return nw
}

// AddNode registers the node for its AD. Registering two nodes for one AD,
// or a node for an AD the graph lacks, panics: it is always a harness bug.
func (nw *Network) AddNode(n Node) {
	p := ad.Position(nw.ids, n.ID())
	if p < 0 {
		panic(fmt.Sprintf("sim: node for %v, which the graph lacks", n.ID()))
	}
	if nw.nodes[p] != nil {
		panic(fmt.Sprintf("sim: duplicate node for %v", n.ID()))
	}
	nw.nodes[p] = n
}

// Nodes returns all registered nodes sorted by AD ID.
func (nw *Network) Nodes() []Node {
	out := make([]Node, 0, len(nw.nodes))
	for _, n := range nw.nodes {
		if n != nil {
			out = append(out, n)
		}
	}
	return out
}

// position returns id's position, or -1 when the graph lacks it. It panics
// if the graph moved since NewNetwork: the numbering would no longer be its.
func (nw *Network) position(id ad.ID) int {
	if v := nw.Graph.Version(); v != nw.gver {
		panic(fmt.Sprintf("sim: the graph moved from version %d to %d under its network; fail links with FailLink/RestoreLink", nw.gver, v))
	}
	return ad.Position(nw.ids, id)
}

// edge returns the number of the directed edge from a to b, the position of
// b, and the link, or ok false when a and b are not adjacent.
func (nw *Network) edge(a, b ad.ID) (e int32, bpos int32, link ad.Link, ok bool) {
	p := nw.position(a)
	if p < 0 {
		return 0, 0, ad.Link{}, false
	}
	i, ok := slices.BinarySearch(nw.nbrs[p], b)
	if !ok {
		return 0, 0, ad.Link{}, false
	}
	return nw.edgeOff[p] + int32(i), int32(ad.Position(nw.ids, b)), nw.adj[p][i], true
}

// Now returns the current simulated time.
func (nw *Network) Now() Time { return nw.Engine.Now() }

// After schedules fn after d; it is the timer facility for nodes.
func (nw *Network) After(d Time, fn func()) { nw.Engine.After(d, fn) }

// LinkIsUp reports whether the link between a and b exists and is currently
// up.
func (nw *Network) LinkIsUp(a, b ad.ID) bool {
	e, _, _, ok := nw.edge(a, b)
	return ok && !nw.down[e]
}

// UpNeighbors returns the neighbors of id reachable over currently-up links,
// in ascending order. The returned slice may alias the graph's adjacency
// index: callers must not modify it. While no link in the network is down
// (the common case during convergence), it allocates nothing.
func (nw *Network) UpNeighbors(id ad.ID) []ad.ID {
	p := nw.position(id)
	if p < 0 {
		return nil
	}
	all := nw.nbrs[p]
	if nw.numDown == 0 {
		return all
	}
	down := nw.down[nw.edgeOff[p] : int(nw.edgeOff[p])+len(all)]
	for i := range all {
		if down[i] {
			// Copy-on-filter: only pay for an allocation when some
			// incident link is actually down.
			out := make([]ad.ID, i, len(all)-1)
			copy(out, all[:i])
			for j, m := range all[i+1:] {
				if !down[i+1+j] {
					out = append(out, m)
				}
			}
			return out
		}
	}
	return all
}

// Encode marshals m into the network's encode buffer and returns the bytes,
// which stay valid until the next Encode or SendMessage. Send copies its
// payload, so one encoding serves every copy of a message flooded to
// several neighbours.
// Like Marshal, it panics if m's body exceeds the 16-bit length field.
func (nw *Network) Encode(m wire.Message) []byte {
	var err error
	if nw.encBuf, err = wire.AppendMessage(nw.encBuf[:0], m); err != nil {
		panic(err.Error())
	}
	return nw.encBuf
}

// delivery is one message in flight, the record the event queue carries
// from Send to its arrival: its endpoints, its directed edge and that
// edge's failure epoch at sending time, the receiver's position, and the
// payload in the record's own buffer. Records are recycled with their
// buffers, by buffer class, so a message costs no allocation once its
// class is warm.
type delivery struct {
	nw        *Network
	from, to  ad.ID
	edge, dst int32
	epoch     uint64
	buf       []byte
}

// Buffer classes: a payload of n bytes rides in a buffer of 1<<bufClass(n)
// bytes. The smallest class holds 64 bytes; the largest holds every wire
// frame (a 4-byte header and a body of up to 65535 bytes), and larger raw
// payloads grow its buffers.
const (
	minClass = 6
	maxClass = 17
)

func bufClass(n int) int {
	return min(max(bits.Len(uint(max(n, 1)-1)), minClass), maxClass)
}

// Send transmits a marshalled protocol message, one wire frame, from one AD
// to an adjacent AD. Send returns false (and counts a drop) if the ADs are
// not adjacent or the link is down. payload is copied; the caller may reuse
// it once Send returns.
func (nw *Network) Send(from, to ad.ID, payload []byte) bool {
	e, dst, link, ok := nw.edge(from, to)
	if !ok || nw.down[e] {
		nw.Stats.MessagesDropped++
		return false
	}
	prop := Time(link.DelayMicros)
	if prop == 0 {
		prop = nw.DefaultDelay
	}
	// Serialization: the directed transmitter is busy until the previous
	// message finished clocking out, so links stay FIFO.
	start := nw.Now()
	if busy := nw.busyUntil[e]; busy > start {
		start = busy
	}
	var tx Time
	if link.BandwidthBps > 0 {
		tx = Time(int64(len(payload)) * 8 * int64(Second) / link.BandwidthBps)
	}
	nw.busyUntil[e] = start + tx
	delay := (start - nw.Now()) + tx + prop
	nw.Stats.MessagesSent++
	nw.Stats.BytesSent += uint64(len(payload))
	nw.Stats.BytesByType[frameType(payload)] += uint64(len(payload))
	// Convergence marker: when the transmission finishes clocking out, not
	// when Send was called — a queued message on a bandwidth-limited link
	// is still "protocol activity" until its last bit leaves.
	if end := start + tx; end > nw.lastSend {
		nw.lastSend = end
	}
	var d *delivery
	c := bufClass(len(payload))
	if free := nw.free[c]; len(free) > 0 {
		d = free[len(free)-1]
		nw.free[c] = free[:len(free)-1]
	} else {
		d = &delivery{nw: nw, buf: make([]byte, 0, 1<<c)}
	}
	d.from, d.to, d.edge, d.dst, d.epoch = from, to, e, dst, nw.linkEpoch[e]
	d.buf = append(d.buf[:0], payload...)
	nw.Engine.schedule(event{at: nw.Now() + delay, d: d})
	if p := nw.Engine.Pending(); p > nw.Stats.MaxQueuedPending {
		nw.Stats.MaxQueuedPending = p
	}
	return true
}

// SendMessage is Send for a message not yet encoded. It encodes m into the
// network's encode buffer, and Send copies the bytes into a recycled
// payload buffer: the copy sizes a buffer to the messages it carried in one
// step, where encoding into it would grow it field by field. Like Marshal,
// it panics if m's body exceeds the 16-bit length field.
func (nw *Network) SendMessage(from, to ad.ID, m wire.Message) bool {
	return nw.Send(from, to, nw.Encode(m))
}

// frameType returns a frame's type byte, or wire.TypeInvalid for a payload
// too short to hold one.
func frameType(frame []byte) wire.MsgType {
	if len(frame) < 2 {
		return wire.TypeInvalid
	}
	return wire.MsgType(frame[1])
}

// deliver runs d's arrival, then recycles the record and its buffer.
func (nw *Network) deliver(d *delivery) {
	// A failure while the message was in flight loses it.
	if nw.down[d.edge] || nw.linkEpoch[d.edge] != d.epoch {
		nw.Stats.MessagesDropped++
	} else {
		if nw.Trace != nil {
			nw.Trace("%v %v %v->%v %dB", nw.Now(), frameType(d.buf), d.from, d.to, len(d.buf))
		}
		if node := nw.nodes[d.dst]; node != nil {
			node.Receive(nw, d.from, d.buf)
		}
	}
	c := bufClass(cap(d.buf))
	nw.free[c] = append(nw.free[c], d)
}

// Flood sends payload to every up neighbor of from except those in skip.
// It returns the number of copies sent.
func (nw *Network) Flood(from ad.ID, payload []byte, skip ...ad.ID) int {
	sent := 0
	for _, n := range nw.UpNeighbors(from) {
		skipped := false
		for _, s := range skip {
			if n == s {
				skipped = true
				break
			}
		}
		if skipped {
			continue
		}
		if nw.Send(from, n, payload) {
			sent++
		}
	}
	return sent
}

// FailLink marks the link between a and b as down and notifies both
// endpoints' nodes immediately (the paper's model assumes border gateways
// detect adjacent link failures directly). In-flight messages are lost.
func (nw *Network) FailLink(a, b ad.ID) error {
	ab, bpos, _, ok := nw.edge(a, b)
	if !ok {
		return fmt.Errorf("sim: no link %v-%v", a, b)
	}
	if nw.down[ab] {
		return nil
	}
	ba, apos, _, _ := nw.edge(b, a)
	nw.numDown++
	for _, e := range [2]int32{ab, ba} {
		nw.down[e] = true
		nw.linkEpoch[e]++
		// The failure drops whatever was serializing or queued at the
		// transmitter; a later restore must start with an idle one, not
		// inherit pre-failure backlog.
		nw.busyUntil[e] = 0
	}
	if n := nw.nodes[apos]; n != nil {
		n.LinkDown(nw, b)
	}
	if n := nw.nodes[bpos]; n != nil {
		n.LinkDown(nw, a)
	}
	return nil
}

// RestoreLink brings a failed link back up and notifies both endpoints.
func (nw *Network) RestoreLink(a, b ad.ID) error {
	ab, bpos, _, ok := nw.edge(a, b)
	if !ok {
		return fmt.Errorf("sim: no link %v-%v", a, b)
	}
	if !nw.down[ab] {
		return nil
	}
	ba, apos, _, _ := nw.edge(b, a)
	nw.numDown--
	nw.down[ab], nw.down[ba] = false, false
	if n := nw.nodes[apos]; n != nil {
		n.LinkUp(nw, b)
	}
	if n := nw.nodes[bpos]; n != nil {
		n.LinkUp(nw, a)
	}
	return nil
}

// RunToQuiescence starts (if not yet started) and runs the event loop until
// the queue drains or limit is reached. It returns the convergence time
// (time of the last message transmission) and whether the queue drained
// before the limit. Starting runs every node's Start, in AD order, at the
// current time.
func (nw *Network) RunToQuiescence(limit Time) (Time, bool) {
	if !nw.started {
		nw.started = true
		for _, n := range nw.Nodes() {
			n.Start(nw)
		}
	}
	end := nw.Engine.RunUntil(limit)
	if nw.Engine.Pending() == 0 {
		// Nothing is in flight: the pool holds every buffer the run's
		// busiest moment needed, which a converged network may never
		// need again.
		nw.free = [maxClass + 1][]*delivery{}
	}
	return nw.lastSend, end < limit || nw.Engine.Pending() == 0
}

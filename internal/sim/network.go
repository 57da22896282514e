package sim

import (
	"fmt"
	"sort"

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
	MessagesSent     uint64
	BytesSent        uint64
	MessagesDropped  uint64 // sends attempted over down/absent links
	MessagesByKind   map[string]uint64
	BytesByKind      map[string]uint64
	DeliveredByLink  map[[2]ad.ID]uint64
	MaxQueuedPending int
}

func newStats() *Stats {
	return &Stats{
		MessagesByKind:  make(map[string]uint64),
		BytesByKind:     make(map[string]uint64),
		DeliveredByLink: make(map[[2]ad.ID]uint64),
	}
}

// Network couples the event engine, the AD graph, and the per-AD nodes, and
// simulates message transmission over inter-AD links with propagation delay.
//
// Links are FIFO: delay is constant per link, so delivery order matches send
// order. A link can be failed and restored during the run; messages in
// flight when a link fails are lost (they were "on the wire").
type Network struct {
	Engine *Engine
	Graph  *ad.Graph
	Stats  *Stats

	nodes map[ad.ID]Node
	down  map[[2]ad.ID]bool
	// epoch increments on each link failure; in-flight messages stamped
	// with an older epoch for that link are dropped on delivery.
	linkEpoch map[[2]ad.ID]uint64
	// busyUntil tracks each directed link's transmitter: a message may
	// not start serializing before the previous one finished, which
	// keeps links FIFO even with size-dependent transmission delays.
	// FailLink clears both directed entries so a restored link starts
	// with an idle transmitter instead of inheriting pre-failure backlog.
	busyUntil map[[2]ad.ID]Time

	// free recycles the in-flight records the event queue carries, each
	// with its payload buffer. The Node contract forbids retaining the
	// payload beyond Receive, so a delivered (or dropped) message's record
	// and buffer can carry a later Send.
	free []*delivery
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

// NewNetwork builds a network over graph with all links initially up.
func NewNetwork(g *ad.Graph) *Network {
	return &Network{
		Engine:       NewEngine(),
		Graph:        g,
		Stats:        newStats(),
		nodes:        make(map[ad.ID]Node),
		down:         make(map[[2]ad.ID]bool),
		linkEpoch:    make(map[[2]ad.ID]uint64),
		busyUntil:    make(map[[2]ad.ID]Time),
		DefaultDelay: 10 * Millisecond,
	}
}

// AddNode registers the node for its AD. Registering two nodes for one AD
// panics: it is always a harness bug.
func (nw *Network) AddNode(n Node) {
	if _, dup := nw.nodes[n.ID()]; dup {
		panic(fmt.Sprintf("sim: duplicate node for %v", n.ID()))
	}
	nw.nodes[n.ID()] = n
}

// Nodes returns all registered nodes sorted by AD ID.
func (nw *Network) Nodes() []Node {
	ids := make([]ad.ID, 0, len(nw.nodes))
	for id := range nw.nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]Node, len(ids))
	for i, id := range ids {
		out[i] = nw.nodes[id]
	}
	return out
}

// Now returns the current simulated time.
func (nw *Network) Now() Time { return nw.Engine.Now() }

// After schedules fn after d; it is the timer facility for nodes.
func (nw *Network) After(d Time, fn func()) { nw.Engine.After(d, fn) }

func linkKey(a, b ad.ID) [2]ad.ID {
	if a > b {
		a, b = b, a
	}
	return [2]ad.ID{a, b}
}

// LinkIsUp reports whether the link between a and b exists and is currently
// up.
func (nw *Network) LinkIsUp(a, b ad.ID) bool {
	if !nw.Graph.HasLink(a, b) {
		return false
	}
	return !nw.down[linkKey(a, b)]
}

// UpNeighbors returns the neighbors of id reachable over currently-up links,
// in ascending order. The returned slice may alias the graph's cached
// adjacency index: callers must not modify it. While no link in the network
// is down (the common case during convergence), it allocates nothing.
func (nw *Network) UpNeighbors(id ad.ID) []ad.ID {
	all := nw.Graph.Neighbors(id)
	if len(nw.down) == 0 {
		return all
	}
	for i, n := range all {
		if nw.down[linkKey(id, n)] {
			// Copy-on-filter: only pay for an allocation when some
			// incident link is actually down.
			out := make([]ad.ID, i, len(all)-1)
			copy(out, all[:i])
			for _, m := range all[i+1:] {
				if !nw.down[linkKey(id, m)] {
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
// from Send to its arrival: its link's failure epoch at sending time, and
// the payload in the record's own buffer. Records are recycled with their
// buffers, so a message costs no allocation once the pool is warm; a buffer
// too small for its message grows and stays grown.
type delivery struct {
	nw       *Network
	kind     string
	from, to ad.ID
	epoch    uint64
	buf      []byte
}

// Send transmits a marshalled protocol message from one AD to an adjacent
// AD. kind labels the message for the statistics tables. Send returns false
// (and counts a drop) if the ADs are not adjacent or the link is down.
// payload is copied; the caller may reuse it once Send returns.
func (nw *Network) Send(kind string, from, to ad.ID, payload []byte) bool {
	key := linkKey(from, to)
	link, ok := nw.Graph.LinkBetween(from, to)
	if !ok || nw.down[key] {
		nw.Stats.MessagesDropped++
		return false
	}
	prop := Time(link.DelayMicros)
	if prop == 0 {
		prop = nw.DefaultDelay
	}
	// Serialization: the directed transmitter is busy until the previous
	// message finished clocking out, so links stay FIFO.
	dirKey := [2]ad.ID{from, to}
	start := nw.Now()
	if busy := nw.busyUntil[dirKey]; busy > start {
		start = busy
	}
	var tx Time
	if link.BandwidthBps > 0 {
		tx = Time(int64(len(payload)) * 8 * int64(Second) / link.BandwidthBps)
	}
	nw.busyUntil[dirKey] = start + tx
	delay := (start - nw.Now()) + tx + prop
	nw.Stats.MessagesSent++
	nw.Stats.BytesSent += uint64(len(payload))
	nw.Stats.MessagesByKind[kind]++
	nw.Stats.BytesByKind[kind] += uint64(len(payload))
	// Convergence marker: when the transmission finishes clocking out, not
	// when Send was called — a queued message on a bandwidth-limited link
	// is still "protocol activity" until its last bit leaves.
	if end := start + tx; end > nw.lastSend {
		nw.lastSend = end
	}
	var d *delivery
	if k := len(nw.free); k > 0 {
		d = nw.free[k-1]
		nw.free = nw.free[:k-1]
	} else {
		d = &delivery{nw: nw}
	}
	d.kind, d.from, d.to, d.epoch = kind, from, to, nw.linkEpoch[key]
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
func (nw *Network) SendMessage(kind string, from, to ad.ID, m wire.Message) bool {
	return nw.Send(kind, from, to, nw.Encode(m))
}

// deliver runs d's arrival, then recycles the record and its buffer.
func (nw *Network) deliver(d *delivery) {
	// A failure while the message was in flight loses it.
	if key := linkKey(d.from, d.to); nw.down[key] || nw.linkEpoch[key] != d.epoch {
		nw.Stats.MessagesDropped++
	} else {
		nw.Stats.DeliveredByLink[key]++
		if nw.Trace != nil {
			nw.Trace("%v %s %v->%v %dB", nw.Now(), d.kind, d.from, d.to, len(d.buf))
		}
		if node := nw.nodes[d.to]; node != nil {
			node.Receive(nw, d.from, d.buf)
		}
	}
	nw.free = append(nw.free, d)
}

// Flood sends payload to every up neighbor of from except those in skip.
// It returns the number of copies sent.
func (nw *Network) Flood(kind string, from ad.ID, payload []byte, skip ...ad.ID) int {
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
		if nw.Send(kind, from, n, payload) {
			sent++
		}
	}
	return sent
}

// FailLink marks the link between a and b as down and notifies both
// endpoints' nodes immediately (the paper's model assumes border gateways
// detect adjacent link failures directly). In-flight messages are lost.
func (nw *Network) FailLink(a, b ad.ID) error {
	if !nw.Graph.HasLink(a, b) {
		return fmt.Errorf("sim: no link %v-%v", a, b)
	}
	key := linkKey(a, b)
	if nw.down[key] {
		return nil
	}
	nw.down[key] = true
	nw.linkEpoch[key]++
	// The failure drops whatever was serializing or queued at either
	// transmitter; a later restore must start with idle transmitters, not
	// inherit pre-failure backlog.
	delete(nw.busyUntil, [2]ad.ID{a, b})
	delete(nw.busyUntil, [2]ad.ID{b, a})
	if n := nw.nodes[a]; n != nil {
		n.LinkDown(nw, b)
	}
	if n := nw.nodes[b]; n != nil {
		n.LinkDown(nw, a)
	}
	return nil
}

// RestoreLink brings a failed link back up and notifies both endpoints.
func (nw *Network) RestoreLink(a, b ad.ID) error {
	if !nw.Graph.HasLink(a, b) {
		return fmt.Errorf("sim: no link %v-%v", a, b)
	}
	key := linkKey(a, b)
	if !nw.down[key] {
		return nil
	}
	delete(nw.down, key)
	if n := nw.nodes[a]; n != nil {
		n.LinkUp(nw, b)
	}
	if n := nw.nodes[b]; n != nil {
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
	return nw.lastSend, end < limit || nw.Engine.Pending() == 0
}

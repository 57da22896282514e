// Package filters implements the pre-policy-routing baseline of Breslau &
// Estrin (SIGCOMM 1990) §3: network access control by per-gateway packet
// filters, with no advertisement of filtering policies. Sources know the
// topology (but not the policies) and discover usable routes the only way
// available to them — by sending packets and waiting for a higher-level
// timeout when a silent filter drops them.
//
// The paper's argument is that this is not sufficient: "transit networks
// must advertise their filtering policies in order to prevent routing loops
// and dropped packets. It is not sufficient to discover a policy by having
// packets dropped until a higher level timeout occurs." Experiment E11
// quantifies the cost: packets lost and discovery latency versus ORWG's
// setup-validated routes.
package filters

import (
	"repro/internal/ad"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/synthesis"
	"repro/internal/wire"
)

// ackBit marks a probe acknowledgement travelling back to the source. Acks
// model transport-level acknowledgements and are not themselves filtered.
const ackBit = uint64(1) << 63

// Config parameterizes the baseline.
type Config struct {
	// Seed fixes the network RNG.
	Seed int64
	// MaxCandidates bounds how many distinct source routes a source
	// tries before giving up.
	MaxCandidates int
	// Timeout is the higher-level timeout after which the source deems
	// an attempt dropped.
	Timeout sim.Time
}

// probePayload is the probe payload size in bytes.
const probePayload = 64

// Normalize fills defaults.
func (c Config) Normalize() Config {
	if c.MaxCandidates < 1 {
		c.MaxCandidates = 4
	}
	if c.Timeout == 0 {
		c.Timeout = 500 * sim.Millisecond
	}
	return c
}

// Discovery reports one source's attempt to find a working route.
type Discovery struct {
	Delivered bool
	Path      ad.Path
	// Attempts is the number of candidate routes tried.
	Attempts int
	// DroppedPackets counts probes silently dropped by filters.
	DroppedPackets int
	// Latency is the time from first probe to acknowledged delivery
	// (including timeout waits), or the total time wasted on failure.
	Latency sim.Time
}

// System is a filter-baseline deployment.
type System struct {
	cfg    Config
	nw     *sim.Network
	db     *policy.DB
	openDB *policy.DB
	nodes  map[ad.ID]*node

	// Dropped counts filter drops across the run.
	Dropped int

	probeSeq uint64
	acked    map[uint64]bool
}

// New builds the baseline over g. db is each gateway's private filter
// policy; sources never see it.
func New(g *ad.Graph, db *policy.DB, cfg Config) *System {
	cfg = cfg.Normalize()
	s := &System{
		cfg:    cfg,
		nw:     sim.NewNetwork(g, cfg.Seed),
		db:     db,
		openDB: policy.OpenDB(g),
		nodes:  make(map[ad.ID]*node),
		acked:  make(map[uint64]bool),
	}
	for _, id := range g.IDs() {
		n := &node{id: id, sys: s}
		s.nodes[id] = n
		s.nw.AddNode(n)
	}
	return s
}

// Name implements core.System.
func (s *System) Name() string { return "filters" }

// Network implements core.System.
func (s *System) Network() *sim.Network { return s.nw }

// Converge implements core.System: there is no routing protocol, so the
// system is trivially converged.
func (s *System) Converge(limit sim.Time) (sim.Time, bool) {
	return 0, true
}

// Discover runs the source's trial-and-error process for req.
func (s *System) Discover(req policy.Request) Discovery {
	var d Discovery
	if req.Src == req.Dst {
		d.Delivered = true
		d.Path = ad.Path{req.Src}
		return d
	}
	// Sources know the topology but not the policies: candidates are the
	// k shortest paths under an all-open assumption.
	candidates := synthesis.KShortest(s.nw.Graph, s.openDB, req, s.cfg.MaxCandidates, 0)
	start := s.nw.Now()
	for _, cand := range candidates {
		d.Attempts++
		s.probeSeq++
		id := s.probeSeq
		droppedBefore := s.Dropped
		pkt := &wire.Data{
			Handle:  id,
			Mode:    wire.ModeSourceRoute,
			Req:     req,
			Route:   cand,
			Payload: make([]byte, probePayload),
		}
		sent := s.nw.Now()
		s.nw.SendMessage("probe", req.Src, cand[1], pkt)
		s.nw.Engine.Run()
		if s.acked[id] {
			d.Delivered = true
			d.Path = cand
			d.Latency = s.nw.Now() - start
			return d
		}
		d.DroppedPackets += s.Dropped - droppedBefore
		// The source learns of the failure only via timeout.
		wait := sent + s.cfg.Timeout
		if wait > s.nw.Now() {
			s.nw.Engine.At(wait, func() {})
			s.nw.Engine.Run()
		}
	}
	d.Latency = s.nw.Now() - start
	return d
}

// Route implements core.System.
func (s *System) Route(req policy.Request) core.Outcome {
	d := s.Discover(req)
	return core.Outcome{Path: d.Path, Delivered: d.Delivered}
}

// StateEntries implements core.System: filters keep no routing state.
func (s *System) StateEntries() int { return 0 }

// Computations implements core.System: the source-side candidate
// enumeration is the only computation, charged per Discover call.
func (s *System) Computations() int { return int(s.probeSeq) }

// node is one AD's filtering gateway.
type node struct {
	id  ad.ID
	sys *System
}

func (n *node) ID() ad.ID                          { return n.id }
func (n *node) Start(nw *sim.Network)              {}
func (n *node) LinkDown(nw *sim.Network, nb ad.ID) {}
func (n *node) LinkUp(nw *sim.Network, nb ad.ID)   {}

func (n *node) Receive(nw *sim.Network, from ad.ID, payload []byte) {
	msg, err := wire.Unmarshal(payload)
	if err != nil {
		return
	}
	pkt, ok := msg.(*wire.Data)
	if !ok || pkt.Mode != wire.ModeSourceRoute {
		return
	}
	if pkt.Handle&ackBit != 0 {
		n.forwardAck(nw, pkt)
		return
	}
	idx := int(pkt.HopIndex) + 1
	if idx >= len(pkt.Route) || pkt.Route[idx] != n.id {
		return // misrouted
	}
	if idx == len(pkt.Route)-1 {
		// Destination: acknowledge along the reverse route.
		ack := &wire.Data{
			Handle:   pkt.Handle | ackBit,
			Mode:     wire.ModeSourceRoute,
			HopIndex: 0,
			Req:      pkt.Req,
			Route:    pkt.Route.Reverse(),
		}
		if len(ack.Route) >= 2 {
			nw.SendMessage("ack", n.id, ack.Route[1], ack)
		}
		return
	}
	// Transit gateway: silent filter. The packet is dropped unless some
	// local term permits the traversal; no notification is sent.
	prev := pkt.Route[idx-1]
	next := pkt.Route[idx+1]
	if _, ok := n.sys.db.PermitsTransit(n.id, pkt.Req, prev, next); !ok {
		n.sys.Dropped++
		return
	}
	pkt.HopIndex++
	nw.SendMessage("probe", n.id, next, pkt)
}

// forwardAck relays an acknowledgement (unfiltered) toward the original
// source; at the end it resolves the pending probe.
func (n *node) forwardAck(nw *sim.Network, pkt *wire.Data) {
	idx := int(pkt.HopIndex) + 1
	if idx >= len(pkt.Route) || pkt.Route[idx] != n.id {
		return
	}
	if idx == len(pkt.Route)-1 {
		n.sys.acked[pkt.Handle&^ackBit] = true
		return
	}
	pkt.HopIndex++
	nw.SendMessage("ack", n.id, pkt.Route[idx+1], pkt)
}

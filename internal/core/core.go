// Package core defines the common harness for the inter-AD routing
// architectures of Breslau & Estrin (SIGCOMM 1990): a System interface every
// protocol implements, the ground-truth oracle, and the scenario runner that
// produces the comparison metrics of Table 1 and experiments E1–E12.
package core

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/ad"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/synthesis"
	"repro/internal/trafficgen"
)

// Outcome describes what happened to a traffic request under a protocol.
type Outcome struct {
	// Path is the AD-level path the traffic took (as far as it got).
	Path ad.Path
	// Delivered reports whether the traffic reached the destination.
	Delivered bool
	// Looped reports whether forwarding revisited an AD.
	Looped bool
	// Legal reports whether the delivered path satisfies the ground-truth
	// policy database. Filled by the harness; a protocol that delivers
	// over an illegal path has violated someone's policy.
	Legal bool
	// SetupMessages counts protocol messages spent on route establishment
	// for this request (nonzero only for setup-based architectures).
	SetupMessages int
}

// Forward walks hop-by-hop forwarding from src toward dst: next returns the
// next hop the AD cur picks for traffic that entered it from prev (ad.Invalid
// at src), or ad.Invalid for an unknown AD or a missing route. The walk is
// delivered at dst, looped when it revisits an AD (the path then ends with
// that AD), and black-holed where next returns ad.Invalid.
//
// The walk is kept in a buffer on the stack and copied out once it ends, so
// a walk of up to forwardHops ADs allocates only its returned path.
func Forward(src, dst ad.ID, next func(cur, prev ad.ID) ad.ID) Outcome {
	var buf [forwardHops]ad.ID
	walk := append(buf[:0], src)
	var out Outcome
	for cur, prev := src, ad.Invalid; ; {
		if cur == dst {
			out.Delivered = true
			break
		}
		if slices.Contains(walk[:len(walk)-1], cur) {
			out.Looped = true
			break
		}
		nh := next(cur, prev)
		if nh == ad.Invalid {
			break
		}
		prev, cur = cur, nh
		walk = append(walk, cur)
	}
	out.Path = slices.Clone(walk)
	return out
}

// forwardHops is the walk Forward holds on the stack, room for the paths
// the experiments' internets produce; a longer walk spills to the heap.
const forwardHops = 32

// System is one routing architecture instantiated over a simulated network.
type System interface {
	// Name identifies the architecture in reports.
	Name() string
	// Network exposes the underlying simulated network and its stats.
	Network() *sim.Network
	// Converge starts the protocol (if needed) and runs to quiescence or
	// the limit, returning the convergence time (last protocol message)
	// and whether quiescence was reached.
	Converge(limit sim.Time) (sim.Time, bool)
	// Route resolves req through the protocol's own machinery: following
	// FIB next hops for hop-by-hop designs, or synthesizing and setting
	// up a source route for ORWG.
	Route(req policy.Request) Outcome
	// StateEntries is the total routing state across all ADs (FIB rows,
	// RIB routes, LSDB entries, or handle-cache slots).
	StateEntries() int
	// Computations is the cumulative count of route computations
	// performed anywhere in the system (table recomputations, spanning
	// tree builds, Dijkstra runs).
	Computations() int
	// FailLink fails the link between a and b: both endpoints learn of it
	// at once and messages in flight on it are lost. The protocol's repair
	// has run by the time the next Converge returns.
	FailLink(a, b ad.ID) error
}

// Oracle answers ground-truth questions from the global topology and policy
// database, independent of any protocol. The literal Oracle{G: g, DB: db}
// compiles a search snapshot for every question, which is right for a
// question or two; anything that asks in a loop builds it with NewOracle,
// which keeps the snapshot between questions (RunScenario does so by
// itself).
type Oracle struct {
	G  *ad.Graph
	DB *policy.DB
	// held is shared by every copy of a NewOracle; nil in a literal.
	held *heldSnapshot
}

// heldSnapshot is the snapshot of (G, DB) a NewOracle keeps, recompiled when
// either has been mutated since; the lock lets copies of one Oracle answer
// from several goroutines.
type heldSnapshot struct {
	mu   sync.Mutex
	snap *synthesis.Snapshot
}

// NewOracle returns an oracle over g and db that compiles its search
// snapshot once and again only after g or db was mutated — mutating them
// while a question is being answered remains a race.
func NewOracle(g *ad.Graph, db *policy.DB) Oracle {
	return Oracle{G: g, DB: db, held: new(heldSnapshot)}
}

func (o Oracle) snapshot() *synthesis.Snapshot {
	if o.held == nil {
		return synthesis.Compile(o.G, o.DB)
	}
	o.held.mu.Lock()
	defer o.held.mu.Unlock()
	o.held.snap = o.held.snap.Refresh(o.G, o.DB)
	return o.held.snap
}

// HasRoute reports whether a legal route exists for req.
func (o Oracle) HasRoute(req policy.Request) bool {
	return o.snapshot().RouteExists(req)
}

// BestCost returns the optimal legal policy cost for req.
func (o Oracle) BestCost(req policy.Request) (uint32, bool) {
	res := o.snapshot().FindRoute(req)
	return res.Cost, res.Found
}

// Legal reports whether path is physically valid in the topology and legal
// under the ground-truth policy database.
func (o Oracle) Legal(path ad.Path, req policy.Request) bool {
	return path.Valid(o.G) && o.DB.PathLegal(path, req)
}

// Metrics aggregates one protocol's behaviour over a request workload.
type Metrics struct {
	Protocol string
	// ConvergenceTime is when the last protocol message was sent.
	ConvergenceTime sim.Time
	// Quiesced reports whether the protocol reached quiescence in time.
	Quiesced bool
	// Messages and Bytes are total protocol traffic to convergence.
	Messages, Bytes uint64
	// Requests is the number of traffic requests evaluated.
	Requests int
	// OracleRoutable counts requests for which a legal route exists.
	OracleRoutable int
	// DeliveredLegal counts requests delivered over a legal path.
	DeliveredLegal int
	// DeliveredIllegal counts requests delivered over a path that
	// violates some AD's policy (a policy failure, not a success).
	DeliveredIllegal int
	// Looped counts requests whose forwarding looped.
	Looped int
	// Blackholed counts requests dropped with no route.
	Blackholed int
	// StretchSum accumulates delivered-cost / optimal-cost for legal
	// deliveries (see Stretch).
	StretchSum float64
	// StateEntries and Computations snapshot the System counters after
	// the workload.
	StateEntries, Computations int
}

// Availability is the fraction of oracle-routable requests delivered over
// legal paths — the paper's central route-availability comparison (E1).
func (m Metrics) Availability() float64 {
	if m.OracleRoutable == 0 {
		return 1
	}
	return float64(m.DeliveredLegal) / float64(m.OracleRoutable)
}

// Stretch is the mean ratio of delivered path cost to optimal legal cost.
func (m Metrics) Stretch() float64 {
	if m.DeliveredLegal == 0 {
		return 0
	}
	return m.StretchSum / float64(m.DeliveredLegal)
}

// String renders a one-line summary.
func (m Metrics) String() string {
	return fmt.Sprintf("%-12s avail=%.3f loops=%d illegal=%d msgs=%d bytes=%d conv=%v state=%d comp=%d",
		m.Protocol, m.Availability(), m.Looped, m.DeliveredIllegal,
		m.Messages, m.Bytes, m.ConvergenceTime, m.StateEntries, m.Computations)
}

// RunScenario converges sys and evaluates it against every request,
// scoring outcomes with the oracle.
func RunScenario(sys System, oracle Oracle, reqs []policy.Request, limit sim.Time) Metrics {
	if oracle.held == nil {
		oracle = NewOracle(oracle.G, oracle.DB)
	}
	conv, ok := sys.Converge(limit)
	m := Metrics{
		Protocol:        sys.Name(),
		ConvergenceTime: conv,
		Quiesced:        ok,
		Requests:        len(reqs),
	}
	for _, req := range reqs {
		routable := oracle.HasRoute(req)
		if routable {
			m.OracleRoutable++
		}
		out := sys.Route(req)
		out.Legal = out.Delivered && oracle.Legal(out.Path, req)
		switch {
		case out.Delivered && out.Legal:
			m.DeliveredLegal++
			if cost, ok := oracle.DB.PathCost(oracle.G, out.Path, req); ok {
				if best, ok2 := oracle.BestCost(req); ok2 && best > 0 {
					m.StretchSum += float64(cost) / float64(best)
				}
			}
		case out.Delivered:
			m.DeliveredIllegal++
		case out.Looped:
			m.Looped++
		default:
			m.Blackholed++
		}
	}
	m.Messages = sys.Network().Stats.MessagesSent
	m.Bytes = sys.Network().Stats.BytesSent
	m.StateEntries = sys.StateEntries()
	m.Computations = sys.Computations()
	return m
}

// AllPairsRequests builds a deterministic request workload: one request per
// ordered stub pair (or all pairs when stubsOnly is false), with the given
// service class. Sources that are not stubs rarely originate traffic in the
// paper's model, so stubsOnly is the usual choice.
func AllPairsRequests(g *ad.Graph, stubsOnly bool, qos policy.QOS, uci policy.UCI) []policy.Request {
	return trafficgen.AllPairs(g, stubsOnly, qos, uci)
}

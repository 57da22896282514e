// Package scenario provides a declarative, JSON-driven front end to the
// simulator: a scenario file names a topology (generated, Figure 1, or
// inline), a policy set (open, generated, or explicit terms), a protocol,
// a timeline of events (link failures/restorations, policy changes), and a
// traffic workload. Running a scenario produces a phase-by-phase report.
//
// This is the integration surface for users who want to pose their own
// what-if questions to the reproduction without writing Go.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/ad"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/pgstate"
	"repro/internal/policy"
	"repro/internal/policytool"
	"repro/internal/protocols"
	"repro/internal/protocols/orwg"
	"repro/internal/sim"
	"repro/internal/synthesis"
	"repro/internal/topology"
	"repro/internal/trafficgen"
	"repro/internal/wire"
)

// Scenario is the top-level declarative description.
type Scenario struct {
	Name     string       `json:"name"`
	Topology TopologySpec `json:"topology"`
	Policy   PolicySpec   `json:"policy"`
	Protocol ProtocolSpec `json:"protocol"`
	Events   []Event      `json:"events,omitempty"`
	Requests RequestSpec  `json:"requests"`
	// ConvergeLimitMS bounds each convergence phase (default 600 000).
	ConvergeLimitMS int64 `json:"converge_limit_ms,omitempty"`
}

// TopologySpec selects the internet. Exactly one field should be set.
type TopologySpec struct {
	Figure1  bool             `json:"figure1,omitempty"`
	Generate *topology.Config `json:"generate,omitempty"`
}

// PolicySpec selects the policy database.
type PolicySpec struct {
	Open     bool              `json:"open,omitempty"`
	Generate *policy.GenConfig `json:"generate,omitempty"`
	Terms    []TermSpec        `json:"terms,omitempty"`
}

// TermSpec is the JSON form of one policy term. AD sets are either the
// string "*" (universal) or a list of AD IDs.
type TermSpec struct {
	Advertiser uint32    `json:"advertiser"`
	Serial     uint32    `json:"serial,omitempty"`
	Sources    ADSetSpec `json:"sources,omitempty"`
	Dests      ADSetSpec `json:"dests,omitempty"`
	PrevADs    ADSetSpec `json:"prev,omitempty"`
	NextADs    ADSetSpec `json:"next,omitempty"`
	QOS        []uint8   `json:"qos,omitempty"`
	UCI        []uint8   `json:"uci,omitempty"`
	HourStart  *uint8    `json:"hour_start,omitempty"`
	HourEnd    *uint8    `json:"hour_end,omitempty"`
	Cost       uint32    `json:"cost,omitempty"`
}

// ADSetSpec marshals as "*" or a JSON array of IDs. The zero value means
// universal (the common case for open terms).
type ADSetSpec struct {
	universal bool
	ids       []uint32
	set       bool
}

// UnmarshalJSON implements json.Unmarshaler.
func (s *ADSetSpec) UnmarshalJSON(b []byte) error {
	*s = ADSetSpec{set: true}
	var star string
	if err := json.Unmarshal(b, &star); err == nil {
		if star != "*" {
			return fmt.Errorf("scenario: AD set string must be %q, got %q", "*", star)
		}
		s.universal = true
		return nil
	}
	if err := json.Unmarshal(b, &s.ids); err != nil {
		return fmt.Errorf("scenario: AD set must be \"*\" or an ID list: %w", err)
	}
	return nil
}

// toADSet converts to the policy representation (universal when unset).
func (s ADSetSpec) toADSet() policy.ADSet {
	if !s.set || s.universal {
		return policy.Universal()
	}
	ids := make([]ad.ID, len(s.ids))
	for i, v := range s.ids {
		ids[i] = ad.ID(v)
	}
	return policy.SetOf(ids...)
}

// toTerm converts a TermSpec to a policy.Term.
func (ts TermSpec) toTerm() policy.Term {
	t := policy.Term{
		Advertiser: ad.ID(ts.Advertiser),
		Serial:     ts.Serial,
		Sources:    ts.Sources.toADSet(),
		Dests:      ts.Dests.toADSet(),
		PrevADs:    ts.PrevADs.toADSet(),
		NextADs:    ts.NextADs.toADSet(),
		QOS:        policy.AllClasses,
		UCI:        policy.AllClasses,
		Hours:      policy.Always,
		Cost:       ts.Cost,
	}
	if len(ts.QOS) > 0 {
		t.QOS = policy.ClassSetOf(ts.QOS...)
	}
	if len(ts.UCI) > 0 {
		t.UCI = policy.ClassSetOf(ts.UCI...)
	}
	if ts.HourStart != nil && ts.HourEnd != nil {
		t.Hours = policy.HourWindow{Start: *ts.HourStart, End: *ts.HourEnd}
	}
	if t.Cost == 0 {
		t.Cost = 1
	}
	return t
}

// ProtocolSpec names the design a scenario runs. Every design runs at its
// Table 1 configuration; the ablations of the paper's variants (split
// horizon, multiple routes, QOS classes, ordering, the filter and EGP
// modes) are measured by the experiments that build them.
type ProtocolSpec struct {
	// Name is a name of protocols.Designs.
	Name string `json:"name"`
	// CacheCapacity, orwg only, caps every policy gateway's handle table
	// at this many entries.
	CacheCapacity int `json:"cache_capacity,omitempty"`
}

// Event is one timeline entry, applied after the previous phase converges.
type Event struct {
	// Action is "fail", "restore", "update-policy", "kill-primary", or
	// "plan". kill-primary models a route-server replica failover: in
	// single-server replay it is the "invalidate" control op (the cold
	// cache a restarted server — or an unreplicated standby — starts
	// from); protocol simulations re-evaluate without mutating the
	// network. plan is a what-if proposal: the Steps batch is assessed
	// against a cloned world — nothing in the live scenario mutates — and
	// the Assert bounds are enforced on the predicted report.
	Action string `json:"action"`
	// A and B are the link endpoints for fail/restore.
	A uint32 `json:"a,omitempty"`
	B uint32 `json:"b,omitempty"`
	// AD is the update-policy target (and the advertiser of a "policy"
	// plan step).
	AD uint32 `json:"ad,omitempty"`
	// Terms replace the AD's policy for update-policy (as an event or as a
	// plan step).
	Terms []TermSpec `json:"terms,omitempty"`
	// Cost is the open-term cost of a "policy" plan step.
	Cost uint32 `json:"cost,omitempty"`
	// Steps is a "plan" event's proposed batch, in order: nested events
	// restricted to "fail", "restore" (of a link failed earlier in the
	// same batch), "policy" (AD + Cost: one open term) and
	// "update-policy" (AD + Terms).
	Steps []Event `json:"steps,omitempty"`
	// Assert bounds a "plan" event's predicted report; the scenario fails
	// if a bound is exceeded.
	Assert *PlanAssert `json:"assert,omitempty"`
}

// PlanAssert bounds the predicted report of a "plan" event. Nil fields are
// unchecked.
type PlanAssert struct {
	// MaxLost caps the pairs that lose all routes (routable before the
	// batch, not after).
	MaxLost *int `json:"max_lost,omitempty"`
	// MinGained floors the pairs that gain a route.
	MinGained *int `json:"min_gained,omitempty"`
	// MaxUnroutableAfter caps the workload pairs with no route after the
	// batch, routable before or not.
	MaxUnroutableAfter *int `json:"max_unroutable_after,omitempty"`
}

// RequestSpec selects the traffic workload. Exactly one field should be
// set.
type RequestSpec struct {
	// AllStubPairs evaluates every ordered stub pair.
	AllStubPairs bool `json:"all_stub_pairs,omitempty"`
	// AllPairs evaluates every ordered AD pair.
	AllPairs bool `json:"all_pairs,omitempty"`
	// Explicit lists individual requests.
	Explicit []RequestEntry `json:"explicit,omitempty"`
	// Workload generates a synthetic request stream (uniform / Zipf /
	// gravity) via internal/trafficgen — the route-server serving
	// workloads use this.
	Workload *trafficgen.Config `json:"workload,omitempty"`
}

// RequestEntry is one explicit traffic request.
type RequestEntry struct {
	Src  uint32 `json:"src"`
	Dst  uint32 `json:"dst"`
	QOS  uint8  `json:"qos,omitempty"`
	UCI  uint8  `json:"uci,omitempty"`
	Hour uint8  `json:"hour,omitempty"`
}

// ServingTopology is the evaluation internet of Table 1, most experiments,
// the route-serving experiments (E20-E25) and routed's generated world: two
// backbones, three regionals each, three campuses per parent, with lateral,
// bypass, multi-homed and hybrid structure per the paper's model (§2.1).
func ServingTopology(seed int64) topology.Config {
	return topology.Config{
		Seed:                 seed,
		Backbones:            2,
		RegionalsPerBackbone: 3,
		CampusesPerParent:    3,
		LateralProb:          0.25,
		BypassProb:           0.10,
		MultihomedProb:       0.15,
		HybridProb:           0.15,
	}
}

// RestrictedPolicy is the moderately restricted policy regime of the
// headline comparisons, the route-serving experiments and routed's
// generated world.
func RestrictedPolicy(seed int64) policy.GenConfig {
	return policy.GenConfig{
		Seed:                  seed,
		SourceRestrictionProb: 0.6,
		SourceFraction:        0.5,
		DestRestrictionProb:   0.2,
		DestFraction:          0.7,
		AvoidProb:             0.2,
	}
}

// Load parses a scenario from JSON.
func Load(r io.Reader) (*Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("scenario: content after the scenario object")
	}
	switch p := sc.Protocol; {
	case p.CacheCapacity < 0:
		return nil, fmt.Errorf("scenario: cache_capacity must be positive, got %d", p.CacheCapacity)
	case p.CacheCapacity > 0 && p.Name != "orwg":
		return nil, fmt.Errorf("scenario: cache_capacity applies to orwg only, not %q", p.Name)
	}
	return &sc, nil
}

// Materialize builds the scenario's graph, policy database, and traffic
// workload without constructing a protocol system. The route-server CLI
// (cmd/routed) serves queries straight off this state, firing the
// scenario's events (Ops) as churn.
func (sc *Scenario) Materialize() (*ad.Graph, *policy.DB, []policy.Request, error) {
	var g *ad.Graph
	switch {
	case sc.Topology.Figure1:
		g = topology.Figure1().Graph
	case sc.Topology.Generate != nil:
		g = topology.Generate(*sc.Topology.Generate).Graph
	default:
		return nil, nil, nil, fmt.Errorf("scenario: topology must set figure1 or generate")
	}

	var db *policy.DB
	switch {
	case sc.Policy.Open:
		db = policy.OpenDB(g)
	case sc.Policy.Generate != nil:
		db = policy.Generate(g, *sc.Policy.Generate)
	case len(sc.Policy.Terms) > 0:
		db = policy.NewDB()
		for _, ts := range sc.Policy.Terms {
			db.Add(ts.toTerm())
		}
	default:
		return nil, nil, nil, fmt.Errorf("scenario: policy must set open, generate, or terms")
	}

	var reqs []policy.Request
	switch {
	case sc.Requests.AllStubPairs:
		reqs = trafficgen.AllPairs(g, true, 0, 0)
	case sc.Requests.AllPairs:
		reqs = trafficgen.AllPairs(g, false, 0, 0)
	case len(sc.Requests.Explicit) > 0:
		for _, e := range sc.Requests.Explicit {
			reqs = append(reqs, policy.Request{
				Src: ad.ID(e.Src), Dst: ad.ID(e.Dst),
				QOS: policy.QOS(e.QOS), UCI: policy.UCI(e.UCI), Hour: e.Hour,
			})
		}
	case sc.Requests.Workload != nil:
		reqs = trafficgen.Generate(g, *sc.Requests.Workload)
		if len(reqs) == 0 {
			return nil, nil, nil, fmt.Errorf("scenario: workload generated no requests")
		}
	default:
		return nil, nil, nil, fmt.Errorf("scenario: requests must set all_stub_pairs, all_pairs, explicit, or workload")
	}
	return g, db, reqs, nil
}

// build materializes the scenario's graph, policy, protocol, and workload.
func (sc *Scenario) build() (*ad.Graph, *policy.DB, core.System, []policy.Request, error) {
	g, db, reqs, err := sc.Materialize()
	if err != nil {
		return nil, nil, nil, nil, err
	}

	d := protocols.Lookup(sc.Protocol.Name)
	if d == nil {
		return nil, nil, nil, nil, fmt.Errorf("scenario: unknown protocol %q", sc.Protocol.Name)
	}
	var sys core.System
	if c := sc.Protocol.CacheCapacity; c > 0 {
		sys = orwg.New(g, db, orwg.Config{State: pgstate.Config{Kind: pgstate.Capped, Capacity: c}})
	} else {
		sys = d.New(g, db)
	}

	if _, err := sc.Ops(g, db); err != nil {
		return nil, nil, nil, nil, err
	}
	return g, db, sys, reqs, nil
}

// op is the control op the event spells: the one event-to-step mapping,
// for timeline events and plan steps alike. A "policy" step installs one
// open term, update-policy the event's term list; kill-primary, in
// single-server replay, is the full invalidation a restarted server's cold
// cache amounts to. A "plan" event spells none.
func (ev Event) op() (op wire.PlanStep, ok bool) {
	switch ev.Action {
	case "fail":
		return wire.PlanStep{Op: wire.CtlFail, A: ad.ID(ev.A), B: ad.ID(ev.B)}, true
	case "restore":
		return wire.PlanStep{Op: wire.CtlRestore, A: ad.ID(ev.A), B: ad.ID(ev.B)}, true
	case "policy":
		return wire.OpenPolicy(ad.ID(ev.AD), ev.Cost), true
	case "update-policy":
		terms := make([]policy.Term, len(ev.Terms))
		for i, ts := range ev.Terms {
			terms[i] = ts.toTerm()
		}
		return wire.PlanStep{Op: wire.CtlPolicy, A: ad.ID(ev.AD), Terms: terms}, true
	case "kill-primary":
		return wire.PlanStep{Op: wire.CtlInvalidate}, true
	}
	return op, false
}

// Ops compiles the scenario's events into the control ops a route-serving
// front end (cmd/routed) fires as churn, in process or over the wire. Every
// op goes through the resolver the route server's control plane uses
// (synthesis.World): the timeline is applied to a clone here, so an event the
// live world would refuse — a fail of an absent link, a restore that does not
// follow a fail of the same link, a policy for an unknown AD — is a load
// error, and replayed in order each op meets the state the clone accepted it
// in. A plan predicts, it never mutates: its batch is validated and it
// compiles to no op, so churn replay skips it.
func (sc *Scenario) Ops(g *ad.Graph, db *policy.DB) ([]wire.PlanStep, error) {
	initial := synthesis.NewWorld(g, db)
	shadow := initial.Clone()
	out := make([]wire.PlanStep, 0, len(sc.Events))
	for i, ev := range sc.Events {
		if ev.Action == "plan" {
			// Like Run, which never mutates g, a plan is assessed against
			// the initial world.
			ops, err := planSteps(i, ev)
			if err != nil {
				return nil, err
			}
			if _, _, err := initial.After(ops); err != nil {
				return nil, fmt.Errorf("scenario: event %d %w", i+1, err) // err names the step
			}
			continue
		}
		op, ok := ev.op()
		if !ok || ev.Action == "policy" { // the open-term shorthand is a plan step only
			return nil, fmt.Errorf("scenario: event %d: unknown action %q", i+1, ev.Action)
		}
		if _, err := shadow.Apply(op); err != nil {
			return nil, fmt.Errorf("scenario: event %d: %w", i+1, err)
		}
		out = append(out, op)
	}
	return out, nil
}

// planSteps checks a "plan" event's steps and assert bounds and spells its
// batch as control ops.
func planSteps(i int, ev Event) ([]wire.PlanStep, error) {
	if len(ev.Steps) == 0 {
		return nil, fmt.Errorf("scenario: event %d: plan needs at least one step", i+1)
	}
	ops := make([]wire.PlanStep, len(ev.Steps))
	for j, st := range ev.Steps {
		op, ok := st.op()
		if !ok || op.Op == wire.CtlInvalidate { // not plannable: its blast radius is the whole cache
			return nil, fmt.Errorf("scenario: event %d step %d: unknown plan step action %q", i+1, j+1, st.Action)
		}
		ops[j] = op
	}
	if as := ev.Assert; as != nil {
		for name, v := range map[string]*int{
			"max_lost": as.MaxLost, "min_gained": as.MinGained,
			"max_unroutable_after": as.MaxUnroutableAfter,
		} {
			if v != nil && *v < 0 {
				return nil, fmt.Errorf("scenario: event %d: plan assert %s must be >= 0, got %d", i+1, name, *v)
			}
		}
	}
	return ops, nil
}

// evaluatePlanEvent assesses a "plan" event's batch through policytool
// against the current graph and policy database — the live scenario is
// untouched — and enforces the event's assert bounds on the prediction.
func evaluatePlanEvent(g *ad.Graph, db *policy.DB, reqs []policy.Request, i int, ev Event) (policytool.Impact, error) {
	ops, err := planSteps(i, ev)
	if err != nil {
		return policytool.Impact{}, err
	}
	im, err := policytool.Assess(synthesis.NewWorld(g, db), ops, reqs)
	if err != nil {
		return im, fmt.Errorf("scenario: event %d %w", i+1, err)
	}
	gained, lost, unroutable := len(im.Gained), len(im.Lost), len(im.UnroutableAfter)
	if as := ev.Assert; as != nil {
		if as.MaxLost != nil && lost > *as.MaxLost {
			return im, fmt.Errorf("scenario: event %d: plan predicts %d pairs lost, assert max_lost %d", i+1, lost, *as.MaxLost)
		}
		if as.MinGained != nil && gained < *as.MinGained {
			return im, fmt.Errorf("scenario: event %d: plan predicts %d pairs gained, assert min_gained %d", i+1, gained, *as.MinGained)
		}
		if as.MaxUnroutableAfter != nil && unroutable > *as.MaxUnroutableAfter {
			return im, fmt.Errorf("scenario: event %d: plan predicts %d pairs unroutable after, assert max_unroutable_after %d", i+1, unroutable, *as.MaxUnroutableAfter)
		}
	}
	return im, nil
}

// Run executes the scenario and writes a phased report to w.
func (sc *Scenario) Run(w io.Writer) error {
	g, db, sys, reqs, err := sc.build()
	if err != nil {
		return err
	}
	limit := sim.Time(sc.ConvergeLimitMS) * sim.Millisecond
	if limit == 0 {
		limit = 600 * sim.Second
	}
	name := sc.Name
	if name == "" {
		name = "scenario"
	}
	tbl := metrics.NewTable(fmt.Sprintf("%s — %s", name, sys.Name()),
		"phase", "availability", "illegal", "loops", "blackholes", "messages", "bytes", "conv")

	evaluate := func(phase string) {
		m := core.RunScenario(sys, core.Oracle{G: g, DB: currentDB(sys, db)}, reqs, limit)
		tbl.AddRow(phase, m.Availability(), m.DeliveredIllegal, m.Looped, m.Blackholed,
			m.Messages, m.Bytes, m.ConvergenceTime.String())
	}
	evaluate("initial")

	for i, ev := range sc.Events {
		label := fmt.Sprintf("event %d: %s", i+1, ev.Action)
		switch ev.Action {
		case "fail":
			if err := sys.FailLink(ad.ID(ev.A), ad.ID(ev.B)); err != nil {
				return fmt.Errorf("scenario: event %d: %w", i+1, err)
			}
			label = fmt.Sprintf("event %d: fail %v-%v", i+1, ad.ID(ev.A), ad.ID(ev.B))
		case "restore":
			if err := sys.Network().RestoreLink(ad.ID(ev.A), ad.ID(ev.B)); err != nil {
				return fmt.Errorf("scenario: event %d: %w", i+1, err)
			}
			label = fmt.Sprintf("event %d: restore %v-%v", i+1, ad.ID(ev.A), ad.ID(ev.B))
		case "update-policy":
			ow, ok := sys.(*orwg.System)
			if !ok {
				return fmt.Errorf("scenario: update-policy requires the orwg protocol")
			}
			op, _ := ev.op()
			if err := ow.UpdatePolicy(op.A, op.Terms); err != nil {
				return fmt.Errorf("scenario: event %d: %w", i+1, err)
			}
			label = fmt.Sprintf("event %d: update-policy %v (%d terms)", i+1, op.A, len(op.Terms))
		case "kill-primary":
			// A route-server replica event: the protocol network itself is
			// untouched, so the phase just re-evaluates.
			label = fmt.Sprintf("event %d: kill-primary", i+1)
		case "plan":
			// A what-if proposal: assessed on clones, asserted, reported as
			// a note — the live world and the phase table see no change.
			im, err := evaluatePlanEvent(g, currentDB(sys, db), reqs, i, ev)
			if err != nil {
				return err
			}
			tbl.AddNote("event %d: plan (%d steps): %d gained, %d lost, %d unroutable after — asserts hold",
				i+1, len(ev.Steps), len(im.Gained), len(im.Lost), len(im.UnroutableAfter))
			continue
		default:
			return fmt.Errorf("scenario: unknown event action %q", ev.Action)
		}
		evaluate(label)
	}
	return tbl.Render(w)
}

// currentDB returns the live policy database for systems that mutate it
// (ORWG after update-policy events); others keep the original.
func currentDB(sys core.System, db *policy.DB) *policy.DB {
	if ow, ok := sys.(*orwg.System); ok {
		return ow.PolicyDB()
	}
	return db
}

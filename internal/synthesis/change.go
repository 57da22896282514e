package synthesis

import (
	"fmt"
	"maps"

	"repro/internal/ad"
	"repro/internal/policy"
	"repro/internal/wire"
)

// ChangeKind classifies a topology or policy mutation for scoped
// invalidation. The zero value is ChangeFull, so an unannotated mutation
// always falls back to the sound whole-cache path.
type ChangeKind uint8

const (
	// ChangeFull is the unscoped fallback: anything may have changed, so
	// every cached route is suspect.
	ChangeFull ChangeKind = iota
	// ChangeLinkDown removes the A-B link. Routes crossing it die; no
	// route can be created, so negative results stay correct.
	ChangeLinkDown
	// ChangeLinkUp adds (or restores) the A-B link. Existing routes stay
	// legal — though possibly no longer optimal — while unroutable pairs
	// may have gained a route.
	ChangeLinkUp
	// ChangePolicy replaces terms at advertiser AD, described by the
	// RemovedTerms/Broadens fields.
	ChangePolicy
)

// String implements fmt.Stringer.
func (k ChangeKind) String() string {
	switch k {
	case ChangeLinkDown:
		return "link-down"
	case ChangeLinkUp:
		return "link-up"
	case ChangePolicy:
		return "policy"
	default:
		return "full"
	}
}

// Change is a scoped-invalidation descriptor: it tells caches which of
// their entries a mutation can have affected, so everything else may keep
// serving. The retention contract is legality, not optimality: a retained
// positive entry is still a legal route under the post-change state, but a
// ChangeLinkUp or a broadening policy change may have created a cheaper
// one; callers that need optimality back issue a full invalidation.
type Change struct {
	Kind ChangeKind
	// A, B are the link endpoints for ChangeLinkDown / ChangeLinkUp.
	A, B ad.ID
	// AD is the advertiser for ChangePolicy.
	AD ad.ID
	// RemovedTerms lists the term keys dropped or modified by a
	// ChangePolicy: routes admitted by one of them must go.
	RemovedTerms []policy.Key
	// Broadens reports whether the change can admit routes that did not
	// exist before (terms added or modified); it forces negative entries
	// out. Link restorations broaden by construction.
	Broadens bool
}

// LinkDownChange describes the removal of the a-b link.
func LinkDownChange(a, b ad.ID) Change {
	return Change{Kind: ChangeLinkDown, A: a, B: b}
}

// LinkUpChange describes the addition or restoration of the a-b link.
func LinkUpChange(a, b ad.ID) Change {
	return Change{Kind: ChangeLinkUp, A: a, B: b, Broadens: true}
}

// PolicyChangeOf describes a term replacement at delta.AD with term-level
// precision (see policy.DB.SetTerms / DiffTerms).
func PolicyChangeOf(delta policy.TermsDelta) Change {
	return Change{
		Kind:         ChangePolicy,
		AD:           delta.AD,
		RemovedTerms: delta.Removed,
		Broadens:     delta.Broadens,
	}
}

// FullChange describes an unscoped mutation: every cached route is
// suspect.
func FullChange() Change { return Change{Kind: ChangeFull} }

// World is the state a control mutation acts on: the graph and policy
// database a strategy synthesizes over, and the memory of links a fail took
// down, so a restore re-adds them with their original class and cost. It is
// the one place a wire.PlanStep is validated and applied — the live backend
// runs Resolve's closure under its server's strategy lock, scenario replay
// calls Apply on a Clone, and every what-if (the plan engine, scenario plan
// events, policytool) goes through After — so a prediction and the commit it
// predicts cannot drift.
type World struct {
	G  *ad.Graph
	DB *policy.DB
	// Failed holds each link a fail removed, by canonical endpoint pair,
	// until its restore.
	Failed map[[2]ad.ID]ad.Link
}

// NewWorld wraps g and db with an empty failed-link memory.
func NewWorld(g *ad.Graph, db *policy.DB) *World {
	return &World{G: g, DB: db, Failed: make(map[[2]ad.ID]ad.Link)}
}

// Clone returns an independent deep copy.
func (w *World) Clone() *World {
	return &World{G: w.G.Clone(), DB: w.DB.Clone(), Failed: maps.Clone(w.Failed)}
}

// Resolve validates op against the world and returns the Change that
// scopes its invalidation plus the closure that performs it; nothing is
// mutated until apply runs. A refused op — absent link, restore without a
// fail, unknown AD, a term list too long to replicate, unknown code —
// returns the same error on every path.
func (w *World) Resolve(op wire.PlanStep) (ch Change, apply func(), err error) {
	switch op.Op {
	case wire.CtlFail:
		link, ok := w.G.LinkBetween(op.A, op.B)
		if !ok {
			return ch, nil, fmt.Errorf("no link %v-%v", op.A, op.B)
		}
		return LinkDownChange(op.A, op.B), func() {
			w.Failed[ad.LinkKey(op.A, op.B)] = link
			w.G.RemoveLink(op.A, op.B)
		}, nil
	case wire.CtlRestore:
		key := ad.LinkKey(op.A, op.B)
		link, ok := w.Failed[key]
		if !ok {
			return ch, nil, fmt.Errorf("link %v-%v was not failed here", op.A, op.B)
		}
		return LinkUpChange(op.A, op.B), func() {
			delete(w.Failed, key)
			// Cannot fail: the link came out of this graph, and only a
			// restore — which forgets it — puts it back.
			_ = w.G.AddLink(link)
		}, nil
	case wire.CtlPolicy:
		if _, ok := w.G.AD(op.A); !ok {
			return ch, nil, fmt.Errorf("unknown AD %v", op.A)
		}
		if !op.Replicable() {
			return ch, nil, fmt.Errorf("policy %v: %d terms do not fit one replication record", op.A, len(op.Terms))
		}
		return PolicyChangeOf(w.DB.DiffTerms(op.A, op.Terms)), func() { w.DB.SetTerms(op.A, op.Terms) }, nil
	case wire.CtlInvalidate:
		return FullChange(), func() {}, nil
	default:
		return ch, nil, fmt.Errorf("unknown control op %d", op.Op)
	}
}

// Apply resolves op and performs it at once: the form for a world nothing
// else is reading (a clone).
func (w *World) Apply(op wire.PlanStep) (Change, error) {
	ch, apply, err := w.Resolve(op)
	if err == nil {
		apply()
	}
	return ch, err
}

// After applies a what-if batch, in order, to a clone of w and returns the
// world it leads to with each step's Change; w itself is untouched. An
// empty batch is refused, and so is a full invalidation, as not plannable:
// its blast radius is the whole cache. A step's error names its 1-based
// position.
func (w *World) After(steps []wire.PlanStep) (*World, []Change, error) {
	if len(steps) == 0 {
		return nil, nil, fmt.Errorf("empty plan")
	}
	after := w.Clone()
	changes := make([]Change, len(steps))
	for i, st := range steps {
		ch, err := after.Apply(st)
		if err == nil && ch.Kind == ChangeFull {
			err = fmt.Errorf("%v is not plannable", st)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("step %d: %w", i+1, err)
		}
		changes[i] = ch
	}
	return after, changes, nil
}

// AffectsPath reports whether the change can invalidate the legality of an
// existing route. Strategies apply it at AD granularity (a ChangePolicy
// taints every route transiting the AD); the serving cache refines
// ChangePolicy to the recorded term keys via its reverse index.
func (c Change) AffectsPath(p ad.Path) bool {
	switch c.Kind {
	case ChangeLinkDown:
		return p.CrossesLink(c.A, c.B)
	case ChangeLinkUp:
		// A new link cannot break an existing route.
		return false
	case ChangePolicy:
		return p.Transits(c.AD)
	default:
		return true
	}
}

// AffectsNegative reports whether the change can make a previously
// unroutable request routable, i.e. whether cached negative results must
// be dropped.
func (c Change) AffectsNegative() bool {
	switch c.Kind {
	case ChangeLinkDown:
		return false
	case ChangeLinkUp:
		return true
	case ChangePolicy:
		return c.Broadens
	default:
		return true
	}
}

// Footprint is the dependency set of one synthesized route: the
// adjacencies it traverses (canonical low-high pairs) and the key of the
// cheapest permitting term at each transit AD. The route stays legal
// exactly as long as every listed link is up and every listed term still
// admits it, so an index over these two sets supports precise eviction.
// Negative results have an empty footprint; caches index them by their
// request key instead.
type Footprint struct {
	Links [][2]ad.ID
	Terms []policy.Key
}

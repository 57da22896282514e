package pgstate

import (
	"repro/internal/ad"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Op is what a gateway rule asks its driver to do with one handle. The zero
// Op drops the event: nothing further happens.
type Op uint8

// The actions of the gateway rules.
const (
	// Forward passes the packet that arrived (data, refresh, a NAK walking
	// back or a teardown walking on) to To, unchanged.
	Forward Op = iota + 1
	// Deliver hands a data packet up: this AD is the destination.
	Deliver
	// NAK sends To, the previous AD, a failed setup reply (Code, At).
	NAK
	// Teardown sends To, the next AD, a repair teardown.
	Teardown
	// Fail ends a NAK (Code, At) here: if this AD sourced the handle, its
	// setup or flow failed, and a live flow is queued for repair.
	Fail
	// Expire reports the handle's soft state expired here: if this AD
	// sourced the flow, the flow is abandoned, not repaired.
	Expire
)

// Action is one thing a gateway rule asks of its driver. Code is a NAK's
// or a failure's wire.Setup* code and At the AD it names.
type Action struct {
	Op     Op
	Handle uint64
	To     ad.ID
	Code   uint8
	At     ad.ID
}

// Gateway is one AD's policy gateway as the rules of §5.4.1 and §6 see it:
// the AD and its handle table. The rules are written once, sans I/O, for
// both of the tree's gateways: ORWG's simulated PGs send each action as a
// wire message, and routeserver.DataPlane applies it at once. A rule is
// given the clock and one handle event, updates the table and returns what
// the driver must do next.
//
// Gone, when not nil, holds the handles the rules took out of Table: a
// handle in it reads as absent, and a rule that drops an entry adds it to
// Gone instead of removing it, so the driver decides whether the removals
// happen. OnExpire ignores it.
type Gateway struct {
	ID    ad.ID
	Table *Table
	Gone  map[uint64]bool
}

// peek and remove are the table's, seen through Gone.
func (g Gateway) peek(now sim.Time, h uint64) (Entry, bool) {
	if g.Gone[h] {
		return Entry{}, false
	}
	return g.Table.Peek(now, h)
}

func (g Gateway) remove(h uint64) {
	if g.Gone != nil {
		g.Gone[h] = true
	} else {
		g.Table.Remove(h)
	}
}

// OnData is the rule for a handle-mode data packet arriving from from. A
// gateway without live state NAKs with SetupNoState, so lost state is
// re-established on demand instead of blackholing (§6); one whose entry
// names another previous AD drops the packet (§5.4.1's per-packet check);
// the destination delivers it, and a transit forwards it.
func (g Gateway) OnData(now sim.Time, from ad.ID, h uint64) Action {
	var e Entry
	ok := false
	if !g.Gone[h] {
		e, ok = g.Table.Lookup(now, h)
	}
	switch {
	case !ok:
		return Action{Op: NAK, Handle: h, To: from, Code: wire.SetupNoState, At: g.ID}
	case e.Idx > 0 && e.Route[e.Idx-1] != from:
		return Action{Handle: h}
	case e.Idx == len(e.Route)-1:
		return Action{Op: Deliver, Handle: h}
	}
	return Action{Op: Forward, Handle: h, To: e.Route[e.Idx+1]}
}

// OnRefresh is the rule for a soft-state keepalive arriving from from: it
// extends the entry's deadline (ttl <= 0 = the table default) and walks on.
// A gateway that no longer holds the state NAKs with SetupNoState, so the
// source learns its route decayed.
func (g Gateway) OnRefresh(now sim.Time, from ad.ID, h uint64, ttl sim.Time) Action {
	if g.Gone[h] || !g.Table.Refresh(now, h, ttl) {
		return Action{Op: NAK, Handle: h, To: from, Code: wire.SetupNoState, At: g.ID}
	}
	e, ok := g.peek(now, h)
	if !ok || e.Idx > 0 && e.Route[e.Idx-1] != from || e.Idx == len(e.Route)-1 {
		return Action{Handle: h}
	}
	return Action{Op: Forward, Handle: h, To: e.Route[e.Idx+1]}
}

// OnNAK is the rule for a failed setup reply (code, at) walking back: a
// gateway holding the handle drops it and passes the NAK upstream. The NAK
// ends at the source, or at the first gateway with no state left.
func (g Gateway) OnNAK(now sim.Time, h uint64, code uint8, at ad.ID) Action {
	e, ok := g.peek(now, h)
	if ok {
		g.remove(h)
	}
	if !ok || e.Idx == 0 {
		return Action{Op: Fail, Handle: h, Code: code, At: at}
	}
	return Action{Op: Forward, Handle: h, To: e.Route[e.Idx-1]}
}

// OnTeardown is the rule for a teardown walking toward the destination: a
// gateway holding the handle drops it and passes the teardown on; the
// first one with no state left ends it.
func (g Gateway) OnTeardown(now sim.Time, h uint64) Action {
	e, ok := g.peek(now, h)
	if !ok {
		return Action{Handle: h}
	}
	g.remove(h)
	if e.Idx == len(e.Route)-1 {
		return Action{Handle: h}
	}
	return Action{Op: Forward, Handle: h, To: e.Route[e.Idx+1]}
}

// OnLinkDown is the rule for the failure of the link to neighbour nb, and
// appends its actions to dst. Every handle whose route crosses the link,
// found through the link index, is flushed here; routes are loop-free, so
// nb is its previous or next hop. If the dead hop was downstream, a
// SetupNoLink NAK walks back (or the flow fails here, at its source); if
// upstream, a teardown clears the state downstream.
func (g Gateway) OnLinkDown(now sim.Time, nb ad.ID, dst []Action) []Action {
	for _, h := range g.Table.HandlesCrossing(g.ID, nb) {
		e, ok := g.peek(now, h)
		if !ok {
			continue
		}
		g.remove(h)
		last := len(e.Route) - 1
		if e.Idx == 0 && e.Route[1] == nb {
			dst = append(dst, Action{Op: Fail, Handle: h, Code: wire.SetupNoLink, At: g.ID})
		} else if e.Idx < last && e.Route[e.Idx+1] == nb {
			dst = append(dst, Action{Op: NAK, Handle: h, To: e.Route[e.Idx-1], Code: wire.SetupNoLink, At: g.ID})
		}
		if e.Idx > 0 && e.Idx < last && e.Route[e.Idx-1] == nb {
			dst = append(dst, Action{Op: Teardown, Handle: h, To: e.Route[e.Idx+1]})
		}
	}
	return dst
}

// OnPolicy is the rule for a change of this AD's local policy to terms, and
// appends its actions to dst: the gateway checks each installed route, in
// handle order, against its own current policy (§5.4.1). A transit entry
// no term permits any more is dropped and NAKed upstream with
// SetupNoPolicy; the state downstream is left to its discipline. Sources
// and destinations hold no transit obligation.
func (g Gateway) OnPolicy(now sim.Time, terms []policy.Term, dst []Action) []Action {
next:
	for _, h := range g.Table.Handles() {
		e, ok := g.peek(now, h)
		if !ok || e.Idx == 0 || e.Idx == len(e.Route)-1 {
			continue
		}
		for i := range terms {
			if terms[i].Permits(e.Req, e.Route[e.Idx-1], e.Route[e.Idx+1]) {
				continue next
			}
		}
		g.remove(h)
		dst = append(dst, Action{Op: NAK, Handle: h, To: e.Route[e.Idx-1], Code: wire.SetupNoPolicy, At: g.ID})
	}
	return dst
}

// OnExpire is the rule for the clock reaching now, and appends its actions
// to dst: every soft entry due is dropped, in handle order, as an Expire.
func (g Gateway) OnExpire(now sim.Time, dst []Action) []Action {
	for _, h := range g.Table.ExpireDue(now) {
		dst = append(dst, Action{Op: Expire, Handle: h})
	}
	return dst
}

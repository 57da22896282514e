package wire

import (
	"encoding/binary"

	"repro/internal/ad"
	"repro/internal/policy"
)

// DVRoute flag bits.
const (
	// FlagTraversedDown marks a route that has crossed a "down" link in
	// the ECMA partial ordering; such routes may not be re-advertised up
	// (paper §5.1.1).
	FlagTraversedDown uint8 = 1 << iota
	// FlagWithdraw marks an explicit route withdrawal.
	FlagWithdraw
)

// DVRoute is one entry of a distance-vector update: destination, composite
// metric, QOS index, and flags.
type DVRoute struct {
	Dest   ad.ID
	Metric uint32
	QOS    policy.QOS
	Flags  uint8
}

// DVUpdate is a distance-vector routing update (plain DV and ECMA).
type DVUpdate struct {
	Routes []DVRoute
}

// Type implements Message.
func (*DVUpdate) Type() MsgType { return TypeDVUpdate }

func (m *DVUpdate) code(c codec) codec {
	list(&c, &m.Routes, 10)
	for i := range m.Routes {
		rt := &m.Routes[i]
		c.id(&rt.Dest)
		c.u32(&rt.Metric)
		c.u8((*uint8)(&rt.QOS))
		c.u8(&rt.Flags)
	}
	return c
}

// PVRoute is one entry of an IDRP/BGP-2 path-vector update. Beyond the
// distance-vector fields it carries the full AD path (for loop avoidance)
// and policy attributes: the set of source ADs permitted to use the route
// and the user classes admitted (paper §5.2.1).
type PVRoute struct {
	Dest      ad.ID
	Metric    uint32
	QOS       policy.QOS
	Withdrawn bool
	Path      ad.Path
	// AllowedSources is the distribution/usage constraint attribute.
	AllowedSources policy.ADSet
	// UCI is the set of user classes the route admits.
	UCI policy.ClassSet
}

// Len returns r's encoded size in a PathVector body, which is a 16-bit
// route count followed by the routes.
func (r *PVRoute) Len() int {
	n := 17 + 4*len(r.Path) // a route with an empty path and a universal source set
	if !r.AllowedSources.IsUniversal() {
		n += 2 + 4*r.AllowedSources.Size()
	}
	return n
}

// PathVector is an IDRP/BGP-2 routing update.
type PathVector struct {
	Routes []PVRoute
}

// Type implements Message.
func (*PathVector) Type() MsgType { return TypePathVector }

func (m *PathVector) code(c codec) codec {
	list(&c, &m.Routes, 17) // a route with an empty path and a universal source set
	for i := range m.Routes {
		rt := &m.Routes[i]
		c.id(&rt.Dest)
		c.u32(&rt.Metric)
		c.u8((*uint8)(&rt.QOS))
		flags := uint8(0)
		if rt.Withdrawn {
			flags = FlagWithdraw
		}
		c.u8(&flags)
		if c.dec {
			rt.Withdrawn = flags&FlagWithdraw != 0
		}
		c.path(&rt.Path)
		c.adSet(&rt.AllowedSources)
		c.u32((*uint32)(&rt.UCI))
	}
	return c
}

// LSALink describes one adjacency in a link-state advertisement.
type LSALink struct {
	Neighbor ad.ID
	Cost     uint32
	Up       bool
}

// LSA is a policy link-state advertisement: the origin AD's adjacencies plus
// the policy terms it advertises. Flooded by the LS hop-by-hop and ORWG
// architectures (paper §5.3, §5.4).
type LSA struct {
	Origin ad.ID
	Seq    uint32
	Links  []LSALink
	Terms  []policy.Term
}

// Type implements Message.
func (*LSA) Type() MsgType { return TypeLSA }

func (m *LSA) code(c codec) codec {
	c.id(&m.Origin)
	c.u32(&m.Seq)
	list(&c, &m.Links, 9)
	for i := range m.Links {
		l := &m.Links[i]
		c.id(&l.Neighbor)
		c.u32(&l.Cost)
		c.flag(&l.Up)
	}
	list(&c, &m.Terms, minTermLen)
	for i := range m.Terms {
		c.term(&m.Terms[i])
	}
	return c
}

// PeekLSA reads the origin and sequence number at the front of an LSA
// frame — the two fields a flooder's duplicate check needs — without
// decoding the links and terms behind them. ok is false unless b is one
// whole frame of type TypeLSA with both fields present.
func PeekLSA(b []byte) (origin ad.ID, seq uint32, ok bool) {
	if len(b) < headerLen || b[0] != Version || MsgType(b[1]) != TypeLSA ||
		int(binary.BigEndian.Uint16(b[2:4])) != len(b)-headerLen {
		return 0, 0, false
	}
	c := codec{buf: b[headerLen:], dec: true}
	c.id(&origin)
	c.u32(&seq)
	return origin, seq, !c.fail
}

// Setup is an ORWG policy-route setup packet: it carries the full policy
// route (list of ADs) and, for each transit AD, the key of the policy term
// the source believes authorizes the traversal (paper §5.4.1).
type Setup struct {
	// Handle is the source-assigned identifier successive data packets
	// will carry in place of the full route.
	Handle uint64
	// Req identifies the traffic class the route serves.
	Req policy.Request
	// Route is the full AD-level source route.
	Route ad.Path
	// TermKeys lists, in route order, the claimed policy term for each
	// transit AD (len(Route)-2 entries for routes of length >= 2).
	TermKeys []policy.Key
	// TTLMillis is the soft-state lifetime the source requests for the
	// installed handle, in milliseconds (0 = the PG's default; hard and
	// capped PGs ignore it). Part of the §6 state-management extension.
	TTLMillis uint32
}

// Type implements Message.
func (*Setup) Type() MsgType { return TypeSetup }

func (m *Setup) code(c codec) codec {
	c.u64(&m.Handle)
	c.request(&m.Req)
	c.path(&m.Route)
	list(&c, &m.TermKeys, 8)
	for i := range m.TermKeys {
		c.key(&m.TermKeys[i])
	}
	c.u32(&m.TTLMillis)
	return c
}

// Setup reply codes.
const (
	// SetupOK confirms the policy route was validated and cached by
	// every AD on the path.
	SetupOK uint8 = iota
	// SetupNoPolicy means a transit AD found no term permitting the
	// route.
	SetupNoPolicy
	// SetupNoLink means a hop on the route is not an adjacency.
	SetupNoLink
	// SetupBadRoute means the route was malformed (loop, wrong
	// endpoints).
	SetupBadRoute
	// SetupNoState is the NAK a PG returns when a data or refresh packet
	// names a handle it no longer holds (evicted, expired, or flushed by
	// a failure): the source must re-establish via its route server.
	SetupNoState
)

// SetupReply reports setup success or the failing AD and reason.
type SetupReply struct {
	Handle   uint64
	Code     uint8
	FailedAt ad.ID
}

// OK reports whether the setup succeeded.
func (m *SetupReply) OK() bool { return m.Code == SetupOK }

// Type implements Message.
func (*SetupReply) Type() MsgType { return TypeSetupReply }

func (m *SetupReply) code(c codec) codec {
	c.u64(&m.Handle)
	c.u8(&m.Code)
	c.id(&m.FailedAt)
	return c
}

// Data packet forwarding modes.
const (
	// ModeHandle forwards using a previously established policy-route
	// handle: the per-packet header is just the handle.
	ModeHandle uint8 = iota
	// ModeSourceRoute carries the full AD source route and traffic-class
	// request in every packet (used before setup completes, and by the
	// filter baseline).
	ModeSourceRoute
)

// Data is a data packet. In handle mode Route is empty and Req is ignored
// by forwarders (the cached setup supplies them); in source-route mode the
// full route and request ride in the header, exactly the overhead ORWG's
// handles eliminate (paper §5.4.1).
type Data struct {
	Handle   uint64
	Mode     uint8
	HopIndex uint8
	Req      policy.Request
	Route    ad.Path
	Payload  []byte
}

// Type implements Message.
func (*Data) Type() MsgType { return TypeData }

func (m *Data) code(c codec) codec {
	c.u64(&m.Handle)
	c.u8(&m.Mode)
	c.u8(&m.HopIndex)
	c.request(&m.Req)
	c.path(&m.Route)
	list(&c, &m.Payload, 1)
	c.raw(m.Payload)
	return c
}

// HeaderLen returns the size of the packet's routing header: everything
// except the payload. Experiment E5 compares this between modes.
func (m *Data) HeaderLen() int {
	return headerLen + 8 + 2 + 11 + 2 + 4*len(m.Route) + 2
}

// Teardown reasons.
const (
	// TeardownExplicit is an ordinary source-initiated release.
	TeardownExplicit uint8 = iota
	// TeardownRepair is a failure-driven invalidation: a PG adjacent to a
	// failed link flushes the handle downstream so stale state does not
	// linger while the source re-establishes.
	TeardownRepair
)

// Teardown releases the policy-route state identified by Handle at each AD
// along the cached route.
type Teardown struct {
	Handle uint64
	// Reason distinguishes explicit release from failure-driven repair.
	Reason uint8
}

// Type implements Message.
func (*Teardown) Type() MsgType { return TypeTeardown }

func (m *Teardown) code(c codec) codec {
	c.u64(&m.Handle)
	c.u8(&m.Reason)
	return c
}

// Refresh is the soft-state keepalive (paper §6): the source re-asserts an
// established handle so each PG on the route extends the entry's lifetime.
// A PG without state for the handle answers with a SetupReply carrying
// SetupNoState, forcing a re-setup.
type Refresh struct {
	Handle uint64
	// TTLMillis is the requested lifetime extension in milliseconds
	// (0 = the PG's configured default).
	TTLMillis uint32
}

// Type implements Message.
func (*Refresh) Type() MsgType { return TypeRefresh }

func (m *Refresh) code(c codec) codec {
	c.u64(&m.Handle)
	c.u32(&m.TTLMillis)
	return c
}

// EGPRoute is one reachability entry in an EGP update.
type EGPRoute struct {
	Dest   ad.ID
	Metric uint32
}

// EGPUpdate is the EGP baseline's reachability advertisement (paper §3):
// destinations and metrics only, no policy content.
type EGPUpdate struct {
	Routes []EGPRoute
}

// Type implements Message.
func (*EGPUpdate) Type() MsgType { return TypeEGP }

func (m *EGPUpdate) code(c codec) codec {
	list(&c, &m.Routes, 8)
	for i := range m.Routes {
		c.id(&m.Routes[i].Dest)
		c.u32(&m.Routes[i].Metric)
	}
	return c
}

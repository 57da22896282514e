package wire

import (
	"repro/internal/ad"
	"repro/internal/policy"
)

// MetricInfinity is the conventional unreachable metric carried in
// distance-vector and EGP updates. Protocols may use a smaller local
// infinity (e.g. plain DV's 16) but the field accommodates this sentinel.
const MetricInfinity uint32 = 1<<32 - 1

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

func (m *DVUpdate) appendBody(dst []byte) []byte {
	dst = appendU16(dst, uint16(len(m.Routes)))
	for _, rt := range m.Routes {
		dst = appendU32(dst, uint32(rt.Dest))
		dst = appendU32(dst, rt.Metric)
		dst = append(dst, uint8(rt.QOS), rt.Flags)
	}
	return dst
}

func (m *DVUpdate) decodeBody(r *reader) {
	n := r.count(10)
	if n == 0 {
		return
	}
	m.Routes = make([]DVRoute, 0, n)
	for i := 0; i < n; i++ {
		m.Routes = append(m.Routes, DVRoute{
			Dest:   ad.ID(r.u32()),
			Metric: r.u32(),
			QOS:    policy.QOS(r.u8()),
			Flags:  r.u8(),
		})
	}
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

// PathVector is an IDRP/BGP-2 routing update.
type PathVector struct {
	Routes []PVRoute
}

// Type implements Message.
func (*PathVector) Type() MsgType { return TypePathVector }

func (m *PathVector) appendBody(dst []byte) []byte {
	dst = appendU16(dst, uint16(len(m.Routes)))
	for _, rt := range m.Routes {
		dst = appendU32(dst, uint32(rt.Dest))
		dst = appendU32(dst, rt.Metric)
		flags := uint8(0)
		if rt.Withdrawn {
			flags |= FlagWithdraw
		}
		dst = append(dst, uint8(rt.QOS), flags)
		dst = appendPath(dst, rt.Path)
		dst = appendADSet(dst, rt.AllowedSources)
		dst = appendU32(dst, uint32(rt.UCI))
	}
	return dst
}

func (m *PathVector) decodeBody(r *reader) {
	n := r.count(17) // a route with an empty path and a universal source set
	if n == 0 {
		return
	}
	m.Routes = make([]PVRoute, 0, n)
	for i := 0; i < n; i++ {
		var rt PVRoute
		rt.Dest = ad.ID(r.u32())
		rt.Metric = r.u32()
		rt.QOS = policy.QOS(r.u8())
		rt.Withdrawn = r.u8()&FlagWithdraw != 0
		rt.Path = readPath(r)
		rt.AllowedSources = readADSet(r)
		rt.UCI = policy.ClassSet(r.u32())
		m.Routes = append(m.Routes, rt)
	}
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

func (m *LSA) appendBody(dst []byte) []byte {
	dst = appendU32(dst, uint32(m.Origin))
	dst = appendU32(dst, m.Seq)
	dst = appendU16(dst, uint16(len(m.Links)))
	for _, l := range m.Links {
		dst = appendU32(dst, uint32(l.Neighbor))
		dst = appendU32(dst, l.Cost)
		up := uint8(0)
		if l.Up {
			up = 1
		}
		dst = append(dst, up)
	}
	dst = appendU16(dst, uint16(len(m.Terms)))
	for _, t := range m.Terms {
		dst = appendTerm(dst, t)
	}
	return dst
}

func (m *LSA) decodeBody(r *reader) {
	m.Origin = ad.ID(r.u32())
	m.Seq = r.u32()
	nl := r.count(9)
	if nl > 0 {
		m.Links = make([]LSALink, 0, nl)
	}
	for i := 0; i < nl; i++ {
		m.Links = append(m.Links, LSALink{
			Neighbor: ad.ID(r.u32()),
			Cost:     r.u32(),
			Up:       r.u8() == 1,
		})
	}
	nt := r.count(minTermLen)
	if nt > 0 {
		m.Terms = make([]policy.Term, 0, nt)
	}
	for i := 0; i < nt; i++ {
		m.Terms = append(m.Terms, readTerm(r))
	}
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

func (m *Setup) appendBody(dst []byte) []byte {
	dst = appendU64(dst, m.Handle)
	dst = appendRequest(dst, m.Req)
	dst = appendPath(dst, m.Route)
	dst = appendU16(dst, uint16(len(m.TermKeys)))
	for _, k := range m.TermKeys {
		dst = appendU32(dst, uint32(k.Advertiser))
		dst = appendU32(dst, k.Serial)
	}
	return appendU32(dst, m.TTLMillis)
}

func (m *Setup) decodeBody(r *reader) {
	m.Handle = r.u64()
	m.Req = readRequest(r)
	m.Route = readPath(r)
	n := r.count(8)
	if n > 0 {
		m.TermKeys = make([]policy.Key, 0, n)
	}
	for i := 0; i < n; i++ {
		m.TermKeys = append(m.TermKeys, policy.Key{
			Advertiser: ad.ID(r.u32()),
			Serial:     r.u32(),
		})
	}
	m.TTLMillis = r.u32()
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

func (m *SetupReply) appendBody(dst []byte) []byte {
	dst = appendU64(dst, m.Handle)
	dst = append(dst, m.Code)
	dst = appendU32(dst, uint32(m.FailedAt))
	return dst
}

func (m *SetupReply) decodeBody(r *reader) {
	m.Handle = r.u64()
	m.Code = r.u8()
	m.FailedAt = ad.ID(r.u32())
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

func (m *Data) appendBody(dst []byte) []byte {
	dst = appendU64(dst, m.Handle)
	dst = append(dst, m.Mode, m.HopIndex)
	dst = appendRequest(dst, m.Req)
	dst = appendPath(dst, m.Route)
	dst = appendU16(dst, uint16(len(m.Payload)))
	return append(dst, m.Payload...)
}

func (m *Data) decodeBody(r *reader) {
	m.Handle = r.u64()
	m.Mode = r.u8()
	m.HopIndex = r.u8()
	m.Req = readRequest(r)
	m.Route = readPath(r)
	m.Payload = r.bytes(int(r.u16()))
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

func (m *Teardown) appendBody(dst []byte) []byte {
	dst = appendU64(dst, m.Handle)
	return append(dst, m.Reason)
}

func (m *Teardown) decodeBody(r *reader) {
	m.Handle = r.u64()
	m.Reason = r.u8()
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

func (m *Refresh) appendBody(dst []byte) []byte {
	dst = appendU64(dst, m.Handle)
	return appendU32(dst, m.TTLMillis)
}

func (m *Refresh) decodeBody(r *reader) {
	m.Handle = r.u64()
	m.TTLMillis = r.u32()
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

func (m *EGPUpdate) appendBody(dst []byte) []byte {
	dst = appendU16(dst, uint16(len(m.Routes)))
	for _, rt := range m.Routes {
		dst = appendU32(dst, uint32(rt.Dest))
		dst = appendU32(dst, rt.Metric)
	}
	return dst
}

func (m *EGPUpdate) decodeBody(r *reader) {
	n := r.count(8)
	if n == 0 {
		return
	}
	m.Routes = make([]EGPRoute, 0, n)
	for i := 0; i < n; i++ {
		m.Routes = append(m.Routes, EGPRoute{Dest: ad.ID(r.u32()), Metric: r.u32()})
	}
}

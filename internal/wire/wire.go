// Package wire defines the binary on-the-wire encodings of every protocol
// message exchanged in the simulations: distance-vector and path-vector
// updates, policy link-state advertisements, ORWG route setup/teardown, data
// packets, and the EGP baseline's reachability updates.
//
// Message overhead statistics in the experiments are computed from these
// marshalled bytes, so header-size claims (e.g. source route vs handle,
// paper §5.4.1) are measured rather than estimated.
//
// All integers are big-endian. Every message starts with a 4-byte header:
//
//	byte 0   version (currently 1)
//	byte 1   message type
//	bytes2-3 body length in bytes
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Version is the wire protocol version emitted and accepted.
const Version = 1

// headerLen is the fixed message header size.
const headerLen = 4

// MsgType discriminates message bodies.
type MsgType uint8

// Message types.
const (
	TypeInvalid MsgType = iota
	// TypeDVUpdate is a distance-vector routing update (plain DV, ECMA).
	TypeDVUpdate
	// TypePathVector is an IDRP/BGP-2 path-vector update with policy
	// attributes.
	TypePathVector
	// TypeLSA is a policy link-state advertisement.
	TypeLSA
	// TypeSetup is an ORWG policy-route setup packet.
	TypeSetup
	// TypeSetupReply acknowledges or refuses a setup.
	TypeSetupReply
	// TypeData is a data packet (source-routed or handle-forwarded).
	TypeData
	// TypeTeardown releases an established policy route.
	TypeTeardown
	// TypeEGP is an EGP neighbor-reachability update.
	TypeEGP
	// TypeRefresh is a soft-state keepalive extending a policy-route
	// handle's lifetime at each PG on the cached route.
	TypeRefresh
	// TypeQuery is a route query on a daemon session (§5.4 serving).
	TypeQuery
	// TypeQueryReply answers a route query.
	TypeQueryReply
	// TypeControl is a control-plane mutation (fail/restore/policy/
	// invalidate) on a daemon session.
	TypeControl
	// TypeControlReply acknowledges a Control or Drain.
	TypeControlReply
	// TypeDataOp is a data-plane operation (install/send/refresh/tick/
	// repair/state) on a daemon session.
	TypeDataOp
	// TypeDataOpReply answers a DataOp.
	TypeDataOpReply
	// TypeStatsQuery asks for the daemon's serving counters.
	TypeStatsQuery
	// TypeStatsReply carries the serving counters.
	TypeStatsReply
	// TypeDrain asks the daemon to drain gracefully.
	TypeDrain
	// TypeHello opens an HA replication connection (heartbeat or sync).
	TypeHello
	// TypeHeartbeat is the periodic liveness beacon between replicas.
	TypeHeartbeat
	// TypeSyncEntry replicates one backlog record (cache put or control
	// mutation) from primary to follower.
	TypeSyncEntry
	// TypeSyncSnapshot brackets a full warm-state transfer on a sync link.
	TypeSyncSnapshot
	// TypePromote announces a replica's self-promotion to primary.
	TypePromote
	// TypeNotPrimary redirects a client (or refuses a sync stream) toward
	// the current primary.
	TypeNotPrimary
	// TypePlan proposes a what-if control batch for blast-radius
	// prediction, or commits a previously computed plan.
	TypePlan
	// TypePlanReply carries the predicted blast radius (or the committed
	// plan's observed counts).
	TypePlanReply
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case TypeDVUpdate:
		return "dv-update"
	case TypePathVector:
		return "path-vector"
	case TypeLSA:
		return "lsa"
	case TypeSetup:
		return "setup"
	case TypeSetupReply:
		return "setup-reply"
	case TypeData:
		return "data"
	case TypeTeardown:
		return "teardown"
	case TypeEGP:
		return "egp"
	case TypeRefresh:
		return "refresh"
	case TypeQuery:
		return "query"
	case TypeQueryReply:
		return "query-reply"
	case TypeControl:
		return "control"
	case TypeControlReply:
		return "control-reply"
	case TypeDataOp:
		return "data-op"
	case TypeDataOpReply:
		return "data-op-reply"
	case TypeStatsQuery:
		return "stats-query"
	case TypeStatsReply:
		return "stats-reply"
	case TypeDrain:
		return "drain"
	case TypeHello:
		return "hello"
	case TypeHeartbeat:
		return "heartbeat"
	case TypeSyncEntry:
		return "sync-entry"
	case TypeSyncSnapshot:
		return "sync-snapshot"
	case TypePromote:
		return "promote"
	case TypeNotPrimary:
		return "not-primary"
	case TypePlan:
		return "plan"
	case TypePlanReply:
		return "plan-reply"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// Errors returned by Unmarshal, ReadMessage and AppendMessage.
var (
	ErrTruncated   = errors.New("wire: truncated message")
	ErrBadVersion  = errors.New("wire: unsupported version")
	ErrUnknownType = errors.New("wire: unknown message type")
	ErrTrailing    = errors.New("wire: trailing bytes after message body")
	ErrTooLarge    = errors.New("wire: message exceeds maximum size")
)

// maxBody bounds message bodies to what the 16-bit length field can carry.
const maxBody = 1<<16 - 1

// Message is implemented by every wire message. Decoding is not part of
// the interface: Unmarshal calls each type's decodeBody on the concrete type,
// which keeps its cursor on the stack.
type Message interface {
	// Type returns the message's type code.
	Type() MsgType
	// appendBody appends the marshalled body to dst and returns it.
	appendBody(dst []byte) []byte
}

// AppendMessage appends m's frame — header and body — to dst and returns
// the extended slice. It is the one encoder; Marshal and WriteMessage call
// it. A body beyond the 16-bit length field returns ErrTooLarge and dst
// with its original length and contents.
func AppendMessage(dst []byte, m Message) ([]byte, error) {
	start := len(dst)
	dst = append(dst, Version, byte(m.Type()), 0, 0)
	dst = m.appendBody(dst)
	body := len(dst) - start - headerLen
	if body > maxBody {
		return dst[:start], fmt.Errorf("%w: %v body %d bytes, max %d", ErrTooLarge, m.Type(), body, maxBody)
	}
	binary.BigEndian.PutUint16(dst[start+2:], uint16(body))
	return dst, nil
}

// Marshal encodes m with its header. It panics if the body exceeds the
// 16-bit length field: that is a protocol design error, not a runtime
// condition (callers size updates below the limit). Code that encodes
// values it did not size itself calls AppendMessage and handles ErrTooLarge.
func Marshal(m Message) []byte {
	buf, err := AppendMessage(make([]byte, 0, headerLen+64), m)
	if err != nil {
		panic(err.Error())
	}
	return buf
}

// Unmarshal decodes one message from b, which must contain exactly one
// message. The message shares no memory with b.
func Unmarshal(b []byte) (Message, error) {
	if len(b) < headerLen {
		return nil, ErrTruncated
	}
	if b[0] != Version {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, b[0])
	}
	bodyLen := int(binary.BigEndian.Uint16(b[2:4]))
	body := b[headerLen:]
	if len(body) < bodyLen {
		return nil, ErrTruncated
	}
	if len(body) > bodyLen {
		return nil, ErrTrailing
	}
	r := reader{buf: body}
	var m Message
	switch MsgType(b[1]) {
	case TypeDVUpdate:
		v := new(DVUpdate)
		v.decodeBody(&r)
		m = v
	case TypePathVector:
		v := new(PathVector)
		v.decodeBody(&r)
		m = v
	case TypeLSA:
		v := new(LSA)
		v.decodeBody(&r)
		m = v
	case TypeSetup:
		v := new(Setup)
		v.decodeBody(&r)
		m = v
	case TypeSetupReply:
		v := new(SetupReply)
		v.decodeBody(&r)
		m = v
	case TypeData:
		v := new(Data)
		v.decodeBody(&r)
		m = v
	case TypeTeardown:
		v := new(Teardown)
		v.decodeBody(&r)
		m = v
	case TypeEGP:
		v := new(EGPUpdate)
		v.decodeBody(&r)
		m = v
	case TypeRefresh:
		v := new(Refresh)
		v.decodeBody(&r)
		m = v
	case TypeQuery:
		v := new(Query)
		v.decodeBody(&r)
		m = v
	case TypeQueryReply:
		v := new(QueryReply)
		v.decodeBody(&r)
		m = v
	case TypeControl:
		v := new(Control)
		v.decodeBody(&r)
		m = v
	case TypeControlReply:
		v := new(ControlReply)
		v.decodeBody(&r)
		m = v
	case TypeDataOp:
		v := new(DataOp)
		v.decodeBody(&r)
		m = v
	case TypeDataOpReply:
		v := new(DataOpReply)
		v.decodeBody(&r)
		m = v
	case TypeStatsQuery:
		v := new(StatsQuery)
		v.decodeBody(&r)
		m = v
	case TypeStatsReply:
		v := new(StatsReply)
		v.decodeBody(&r)
		m = v
	case TypeDrain:
		v := new(Drain)
		v.decodeBody(&r)
		m = v
	case TypeHello:
		v := new(Hello)
		v.decodeBody(&r)
		m = v
	case TypeHeartbeat:
		v := new(Heartbeat)
		v.decodeBody(&r)
		m = v
	case TypeSyncEntry:
		v := new(SyncEntry)
		v.decodeBody(&r)
		m = v
	case TypeSyncSnapshot:
		v := new(SyncSnapshot)
		v.decodeBody(&r)
		m = v
	case TypePromote:
		v := new(Promote)
		v.decodeBody(&r)
		m = v
	case TypeNotPrimary:
		v := new(NotPrimary)
		v.decodeBody(&r)
		m = v
	case TypePlan:
		v := new(Plan)
		v.decodeBody(&r)
		m = v
	case TypePlanReply:
		v := new(PlanReply)
		v.decodeBody(&r)
		m = v
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownType, b[1])
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return m, nil
}

// reader is a cursor over a message body that records the first error and
// turns subsequent reads into no-ops, so decoders can be written without
// per-field error checks.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = ErrTruncated
	}
}

// done reports how decoding ended: the first error, or ErrTrailing when the
// decoder stopped short of the end of the body.
func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return ErrTrailing
	}
	return nil
}

// count reads a 16-bit element count and fails unless that many elements of
// at least elem bytes each can still follow, so a decoder sizes its slice by
// the bytes actually present, not by a number off the wire.
func (r *reader) count(elem int) int {
	n := int(r.u16())
	if r.err != nil || n*elem > len(r.buf)-r.off {
		r.fail()
		return 0
	}
	return n
}

func (r *reader) u8() uint8 {
	if r.err != nil || r.off+1 > len(r.buf) {
		r.fail()
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *reader) u16() uint16 {
	if r.err != nil || r.off+2 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil || n < 0 || r.off+n > len(r.buf) {
		r.fail()
		return nil
	}
	out := make([]byte, n)
	copy(out, r.buf[r.off:])
	r.off += n
	return out
}

// Append helpers shared by encoders.

func appendU16(dst []byte, v uint16) []byte {
	return append(dst, byte(v>>8), byte(v))
}

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendU64(dst []byte, v uint64) []byte {
	dst = appendU32(dst, uint32(v>>32))
	return appendU32(dst, uint32(v))
}

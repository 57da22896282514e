// Package wire defines the binary on-the-wire encodings of every message
// this repository puts on a link or a socket, in four families:
//
//   - the simulations' protocol messages (messages.go): distance-vector and
//     path-vector updates, policy link-state advertisements, ORWG route
//     setup, setup replies, teardown, refresh and data packets, and the EGP
//     baseline's reachability updates;
//   - the route-server daemon's serving protocol (§5.4, daemon.go): queries,
//     control-plane mutations, data-plane operations, stats and drain
//     requests, each with its reply;
//   - HA replication between daemons (ha.go): hello, heartbeat, sync entry,
//     sync snapshot, promote, and the not-primary redirect;
//   - what-if planning (plan.go): a plan proposed or committed, and its
//     predicted or observed blast radius.
//
// Message overhead statistics in the experiments are computed from these
// marshalled bytes, so header-size claims (e.g. source route vs handle,
// paper §5.4.1) are measured rather than estimated.
//
// Each message type describes its body once: one method walks its fields in
// wire order through a codec (codec.go), which either writes each field
// into the frame or reads it back into the same field, so the encoder and
// the decoder cannot disagree. The list of types is written once as well,
// in messageTypes, which names each type and builds the value Unmarshal
// decodes into.
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

// messageTypes is the one list of message types: each type's name, and the
// constructor Unmarshal decodes a frame of that type into.
var messageTypes = [...]struct {
	name string
	new  func() Message
}{
	TypeDVUpdate:     {"dv-update", newMessage[DVUpdate]},
	TypePathVector:   {"path-vector", newMessage[PathVector]},
	TypeLSA:          {"lsa", newMessage[LSA]},
	TypeSetup:        {"setup", newMessage[Setup]},
	TypeSetupReply:   {"setup-reply", newMessage[SetupReply]},
	TypeData:         {"data", newMessage[Data]},
	TypeTeardown:     {"teardown", newMessage[Teardown]},
	TypeEGP:          {"egp", newMessage[EGPUpdate]},
	TypeRefresh:      {"refresh", newMessage[Refresh]},
	TypeQuery:        {"query", newMessage[Query]},
	TypeQueryReply:   {"query-reply", newMessage[QueryReply]},
	TypeControl:      {"control", newMessage[Control]},
	TypeControlReply: {"control-reply", newMessage[ControlReply]},
	TypeDataOp:       {"data-op", newMessage[DataOp]},
	TypeDataOpReply:  {"data-op-reply", newMessage[DataOpReply]},
	TypeStatsQuery:   {"stats-query", newMessage[StatsQuery]},
	TypeStatsReply:   {"stats-reply", newMessage[StatsReply]},
	TypeDrain:        {"drain", newMessage[Drain]},
	TypeHello:        {"hello", newMessage[Hello]},
	TypeHeartbeat:    {"heartbeat", newMessage[Heartbeat]},
	TypeSyncEntry:    {"sync-entry", newMessage[SyncEntry]},
	TypeSyncSnapshot: {"sync-snapshot", newMessage[SyncSnapshot]},
	TypePromote:      {"promote", newMessage[Promote]},
	TypeNotPrimary:   {"not-primary", newMessage[NotPrimary]},
	TypePlan:         {"plan", newMessage[Plan]},
	TypePlanReply:    {"plan-reply", newMessage[PlanReply]},
}

// newMessage returns a new zero T, a message type, as a Message.
func newMessage[T any, P interface {
	*T
	Message
}]() Message {
	return P(new(T))
}

func (t MsgType) known() bool { return int(t) < len(messageTypes) && messageTypes[t].new != nil }

// String implements fmt.Stringer.
func (t MsgType) String() string {
	if t.known() {
		return messageTypes[t].name
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
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

// Message is implemented by every wire message.
type Message interface {
	// Type returns the message's type code.
	Type() MsgType
	// code walks the message's fields once, in wire order, through c and
	// returns c: the one description of the body that both encoding and
	// decoding run. The codec travels by value, so calling code through the
	// interface does not move it to the heap.
	code(c codec) codec
}

// AppendMessage appends m's frame — header and body — to dst and returns
// the extended slice. It is the one encoder; Marshal and WriteMessage call
// it. A body beyond the 16-bit length field returns ErrTooLarge and dst
// with its original length and contents.
func AppendMessage(dst []byte, m Message) ([]byte, error) {
	start := len(dst)
	c := m.code(codec{buf: append(dst, Version, byte(m.Type()), 0, 0)})
	body := len(c.buf) - start - headerLen
	if body > maxBody {
		return dst, fmt.Errorf("%w: %v body %d bytes, max %d", ErrTooLarge, m.Type(), body, maxBody)
	}
	binary.BigEndian.PutUint16(c.buf[start+2:], uint16(body))
	return c.buf, nil
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

// frame checks b's header — its length, version and body length — and
// returns the frame's type and body. The type is not checked.
func frame(b []byte) (MsgType, []byte, error) {
	if len(b) < headerLen {
		return 0, nil, ErrTruncated
	}
	if b[0] != Version {
		return 0, nil, fmt.Errorf("%w: %d", ErrBadVersion, b[0])
	}
	switch body, n := b[headerLen:], int(binary.BigEndian.Uint16(b[2:4])); {
	case len(body) < n:
		return 0, nil, ErrTruncated
	case len(body) > n:
		return 0, nil, ErrTrailing
	}
	return MsgType(b[1]), b[headerLen:], nil
}

// Unmarshal decodes one message from b, which must contain exactly one
// message. The message shares no memory with b.
func Unmarshal(b []byte) (Message, error) {
	t, body, err := frame(b)
	if err != nil {
		return nil, err
	}
	if !t.known() {
		return nil, fmt.Errorf("%w: %d", ErrUnknownType, t)
	}
	m := messageTypes[t].new()
	if err := m.code(codec{buf: body, dec: true}).done(); err != nil {
		return nil, err
	}
	return m, nil
}

// UnmarshalInto decodes one message from b, which must contain exactly one
// message of m's type, into m, overwriting every field. Unlike Unmarshal it
// reuses m's lists: a decode loop that keeps one value allocates only where
// a list outgrows its last use (and for non-empty AD sets, which are always
// new). m shares no memory with b; after an error its contents are
// unspecified.
func UnmarshalInto(b []byte, m Message) error {
	t, body, err := frame(b)
	if err != nil {
		return err
	}
	if t != m.Type() {
		return fmt.Errorf("%w: %v frame into %v", ErrUnknownType, t, m.Type())
	}
	return m.code(codec{buf: body, dec: true}).done()
}

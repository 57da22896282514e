package wire

import (
	"repro/internal/ad"
	"repro/internal/policy"
)

// Replication messages: an HA group of route-server daemons elects one
// primary and streams its warm route cache — each entry with the
// dependency footprint that feeds scoped invalidation — to followers, so
// a promoted follower starts serving from warm state instead of an empty
// cache. Two connection kinds share one listener, discriminated by
// Hello.Mode: heartbeat links (periodic Heartbeat, occasional Promote)
// and sync links (a SyncEntry stream, with SyncSnapshot bracketing a full
// state transfer when the follower's cursor precedes the backlog's trim
// horizon). NotPrimary doubles as the sync-link refusal from a
// non-primary and the client-facing redirect on serving sessions.

// Hello connection modes (Hello.Mode).
const (
	// ModeHeartbeat opens a failure-detection link: the dialer sends
	// periodic Heartbeats (and Promotes) and reads nothing back.
	ModeHeartbeat uint8 = iota
	// ModeSync opens a replication link: the dialer is a follower asking
	// the primary to stream backlog entries starting after FromSeq.
	ModeSync
)

// Sync operation codes (SyncEntry.Op).
const (
	// SyncPut replicates one warm-cache entry (request, result, footprint).
	SyncPut uint8 = iota
	// SyncCtl replicates one control-plane mutation (the step a Control
	// carried); the follower applies it through its own backend so scoped
	// eviction replays naturally.
	SyncCtl
)

// Hello opens a replication-listener connection and declares what it is.
type Hello struct {
	// ReplicaID identifies the dialing replica.
	ReplicaID uint32
	// Mode is ModeHeartbeat or ModeSync.
	Mode uint8
	// Epoch is the dialer's current election epoch.
	Epoch uint64
	// FromSeq (ModeSync) is the follower's applied cursor: stream entries
	// with Seq > FromSeq, or cut over to a snapshot if they are gone.
	FromSeq uint64
}

// Type implements Message.
func (*Hello) Type() MsgType { return TypeHello }

func (m *Hello) code(c codec) codec {
	c.u32(&m.ReplicaID)
	c.u8(&m.Mode)
	c.u64(&m.Epoch)
	c.u64(&m.FromSeq)
	return c
}

// Heartbeat is the periodic liveness beacon on a heartbeat link. It also
// carries the sender's view of the election — receivers adopt a strictly
// higher epoch — and the sender's backlog position for lag observability.
type Heartbeat struct {
	ReplicaID uint32
	Epoch     uint64
	// Primary is the replica the sender believes leads Epoch.
	Primary uint32
	// Seq is the sender's latest backlog sequence (0 for followers).
	Seq uint64
}

// Type implements Message.
func (*Heartbeat) Type() MsgType { return TypeHeartbeat }

func (m *Heartbeat) code(c codec) codec {
	c.u32(&m.ReplicaID)
	c.u64(&m.Epoch)
	c.u32(&m.Primary)
	c.u64(&m.Seq)
	return c
}

// SyncEntry is one replicated backlog record: a warm-cache put (SyncPut)
// or a control-plane mutation (SyncCtl). Followers apply entries strictly
// in Seq order; the backlog assigns Seq under the same lock that orders
// the primary's cache inserts and mutations, so stream order is
// application order.
type SyncEntry struct {
	Seq uint64
	Op  uint8

	// SyncPut: the cached answer and its dependency footprint.
	Req   policy.Request
	Found bool
	Path  ad.Path
	// Links are the footprint's canonical link pairs; Terms the admitting
	// policy-term keys (routeserver's byLink/byTerm reverse index).
	Links [][2]ad.ID
	Terms []policy.Key

	// SyncCtl: the mutation.
	Ctl PlanStep
}

// Type implements Message.
func (*SyncEntry) Type() MsgType { return TypeSyncEntry }

func (m *SyncEntry) code(c codec) codec {
	c.u64(&m.Seq)
	c.u8(&m.Op)
	c.request(&m.Req)
	c.flag(&m.Found)
	c.path(&m.Path)
	list(&c, &m.Links, 8)
	for i := range m.Links {
		c.id(&m.Links[i][0])
		c.id(&m.Links[i][1])
	}
	list(&c, &m.Terms, 8)
	for i := range m.Terms {
		c.key(&m.Terms[i])
	}
	c.step(&m.Ctl)
	return c
}

// SyncSnapshot brackets a full state transfer on a sync link. The opener
// (Done false) announces Count entries follow — the control history the
// follower is missing, then every current cache entry — and Seq is the
// backlog position the cut was taken at; the closer (Done true) tells the
// follower to advance its cursor to Seq and resume incremental entries.
type SyncSnapshot struct {
	Seq   uint64
	Count uint32
	Done  bool
}

// Type implements Message.
func (*SyncSnapshot) Type() MsgType { return TypeSyncSnapshot }

func (m *SyncSnapshot) code(c codec) codec {
	c.u64(&m.Seq)
	c.u32(&m.Count)
	c.flag(&m.Done)
	return c
}

// Promote announces a self-promotion on heartbeat links: ReplicaID now
// leads Epoch. Receivers adopt a strictly higher epoch immediately
// instead of waiting a heartbeat interval.
type Promote struct {
	ReplicaID uint32
	Epoch     uint64
}

// Type implements Message.
func (*Promote) Type() MsgType { return TypePromote }

func (m *Promote) code(c codec) codec {
	c.u32(&m.ReplicaID)
	c.u64(&m.Epoch)
	return c
}

// NotPrimary tells the peer it is talking to a follower. On a serving
// session it answers a Query/Control/DataOp (echoing the request ID) and
// names the current primary's client address so the client can redirect;
// on a sync link it refuses the stream (the dialer should re-resolve the
// primary). Addr is empty when the sender does not know a live primary.
type NotPrimary struct {
	ID        uint64
	PrimaryID uint32
	Addr      string
}

// Type implements Message.
func (*NotPrimary) Type() MsgType { return TypeNotPrimary }

func (m *NotPrimary) code(c codec) codec {
	c.u64(&m.ID)
	c.u32(&m.PrimaryID)
	c.str(&m.Addr)
	return c
}

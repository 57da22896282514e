// Package ha replicates a route-server daemon across an N-replica group
// (ROADMAP: "replicated route servers with failover"). One replica is
// primary: it serves clients and streams its warm route cache — every
// entry with the dependency footprint that feeds scoped invalidation —
// plus its control-plane mutations to the followers over internal/wire.
// Followers redirect clients to the primary (NotPrimary), apply the sync
// stream through their own Backend (so scoped eviction replays naturally),
// and watch the primary via heartbeats. When the primary goes silent past
// the heartbeat timeout, the lowest-ID live replica promotes itself under
// a bumped epoch; its cache is warm by construction, so the promoted
// follower serves at nearly the dead primary's hit rate instead of
// recomputing the working set from scratch.
//
// Replication ordering: cache puts are appended to the sync backlog by
// the server's OnInsert hook and control mutations by the backend's
// replicator hook, both of which run under the server's strategy lock —
// so backlog order is exactly the order inserts and mutations interleaved
// on the primary, and followers replay them in that order. The backlog
// trims old cache puts past a cap (control mutations are never trimmed);
// a follower whose cursor precedes the trim horizon receives a snapshot
// instead: the missing control history, then every current cache entry,
// cut consistently under the strategy lock.
//
// Known limitation (accepted, documented in DESIGN.md): there is no
// epoch-fenced log truncation, so a follower that had applied more of the
// old primary's stream than the newly promoted follower can transiently
// diverge in control state until operators reconcile; every follower
// resyncs from scratch (FromSeq 0 → snapshot) on each epoch change, which
// restores cache consistency with the new primary immediately.
package ha

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/routeserver"
	"repro/internal/routeserver/daemon"
	"repro/internal/synthesis"
	"repro/internal/wire"
)

// Peer describes one replica in the group.
type Peer struct {
	// ID is the replica's unique identifier; elections pick the lowest
	// live ID.
	ID uint32
	// HAAddr is the replica's replication listener (heartbeat + sync).
	HAAddr string
	// ClientAddr is the replica's serving daemon address, handed to
	// clients in NotPrimary redirects.
	ClientAddr string
}

// Config parameterizes a Node.
type Config struct {
	// ID is this replica's identifier; it must appear in Peers.
	ID uint32
	// Peers is the full group membership, this replica included.
	Peers []Peer
	// Primary is the initial primary's ID (default: the lowest peer ID).
	Primary uint32
	// HeartbeatEvery is the beacon interval (default 50ms).
	HeartbeatEvery time.Duration
	// HeartbeatTimeout declares a silent replica dead (default 6x
	// HeartbeatEvery). It also grace-periods election at startup.
	HeartbeatTimeout time.Duration
	// BacklogCap bounds retained cache-put backlog entries; a follower
	// lagging past it cuts over to a snapshot (default 4096).
	BacklogCap int
	// Listener optionally supplies a pre-bound replication listener
	// (tests bind :0 first so peers can exchange real addresses);
	// otherwise the node listens on its own Peer.HAAddr.
	Listener net.Listener
}

func (c Config) normalize() Config {
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 50 * time.Millisecond
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 6 * c.HeartbeatEvery
	}
	if c.BacklogCap <= 0 {
		c.BacklogCap = 4096
	}
	if c.Primary == 0 {
		low := uint32(0)
		for _, p := range c.Peers {
			if low == 0 || p.ID < low {
				low = p.ID
			}
		}
		c.Primary = low
	}
	return c
}

// Node is one replica: a route-server backend (and optionally its
// serving daemon) plus the replication machinery. Create with NewNode,
// then Start; Stop winds it down gracefully, Kill abruptly (the crash
// the rest of the group fails over around).
type Node struct {
	cfg Config
	be  *daemon.Backend
	srv *routeserver.Server
	d   *daemon.Daemon // may be nil (no serving front end)

	ln net.Listener

	mu        sync.Mutex
	epoch     uint64
	primary   uint32
	lastSeen  map[uint32]time.Time
	conns     map[net.Conn]struct{}
	syncConn  net.Conn // the follower's live sync connection, if any
	bl        *backlog
	promoteCh chan struct{} // closed+replaced on self-promotion

	primaryNow atomic.Bool
	applied    atomic.Uint64 // follower cursor: highest applied backlog seq

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewNode wires a replica over its backend and (optional) daemon and
// binds the replication listener. Call Start to join the group.
func NewNode(cfg Config, be *daemon.Backend, d *daemon.Daemon) (*Node, error) {
	cfg = cfg.normalize()
	var self *Peer
	for i := range cfg.Peers {
		if cfg.Peers[i].ID == cfg.ID {
			self = &cfg.Peers[i]
		}
	}
	if self == nil {
		return nil, fmt.Errorf("ha: replica %d not in peer list", cfg.ID)
	}
	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", self.HAAddr)
		if err != nil {
			return nil, fmt.Errorf("ha: listen %s: %w", self.HAAddr, err)
		}
	}
	n := &Node{
		cfg:       cfg,
		be:        be,
		srv:       be.Server(),
		d:         d,
		ln:        ln,
		epoch:     1,
		primary:   cfg.Primary,
		lastSeen:  make(map[uint32]time.Time),
		conns:     make(map[net.Conn]struct{}),
		bl:        newBacklog(cfg.BacklogCap),
		promoteCh: make(chan struct{}),
		stop:      make(chan struct{}),
	}
	n.primaryNow.Store(cfg.Primary == cfg.ID)
	return n, nil
}

// Addr returns the replication listener's address (useful with :0).
func (n *Node) Addr() string { return n.ln.Addr().String() }

// IsPrimary reports whether this replica currently leads.
func (n *Node) IsPrimary() bool { return n.primaryNow.Load() }

// Epoch returns the current election epoch.
func (n *Node) Epoch() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch
}

// Primary returns the replica this node believes leads the current epoch.
func (n *Node) Primary() uint32 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.primary
}

// AppliedSeq returns the follower cursor: the highest backlog sequence
// applied locally. Experiments use it as a sync barrier.
func (n *Node) AppliedSeq() uint64 { return n.applied.Load() }

// BacklogLatest returns the last sequence this node's backlog assigned
// (0 unless it has been primary).
func (n *Node) BacklogLatest() uint64 { return n.currentBacklog().latest() }

// Start installs the replication hooks and launches the group machinery:
// the replication listener, one heartbeat dialer per peer, the follower
// sync loop, and the election ticker.
func (n *Node) Start() {
	n.srv.OnInsert(func(k routeserver.Key, res routeserver.Result, fp synthesis.Footprint) {
		if !n.primaryNow.Load() {
			return
		}
		n.currentBacklog().append(wire.SyncEntry{
			Op: wire.SyncPut, Req: k, Found: res.Found, Path: res.Path,
			Links: fp.Links, Terms: fp.Terms,
		})
	})
	n.be.SetReplicator(func(op wire.PlanStep) {
		if !n.primaryNow.Load() {
			return
		}
		n.currentBacklog().append(wire.SyncEntry{Op: wire.SyncCtl, Ctl: op})
	})
	if n.d != nil {
		n.d.SetRedirect(func() (uint32, string, bool) {
			if n.primaryNow.Load() {
				return 0, "", false
			}
			n.mu.Lock()
			p := n.primary
			n.mu.Unlock()
			return p, n.clientAddrOf(p), true
		})
	}

	// Startup grace: treat every peer as just-seen so elections wait a
	// full timeout for the group to come up.
	now := time.Now()
	n.mu.Lock()
	for _, p := range n.cfg.Peers {
		if p.ID != n.cfg.ID {
			n.lastSeen[p.ID] = now
		}
	}
	n.mu.Unlock()

	n.wg.Add(1)
	go n.acceptLoop()
	for _, p := range n.cfg.Peers {
		if p.ID == n.cfg.ID {
			continue
		}
		n.wg.Add(1)
		go n.heartbeatLoop(p)
	}
	n.wg.Add(1)
	go n.syncLoop()
	n.wg.Add(1)
	go n.electionLoop()
}

// Stop winds the replication machinery down: close the listener and
// every replication connection, stop the loops. It does not drain the
// serving daemon (callers own that).
func (n *Node) Stop() {
	n.stopOnce.Do(func() { close(n.stop) })
	n.ln.Close()
	n.mu.Lock()
	conns := make([]net.Conn, 0, len(n.conns))
	for c := range n.conns {
		conns = append(conns, c)
	}
	n.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	n.wg.Wait()
}

// Kill is the crash model: the serving daemon's sessions are severed
// without flushing and the replication machinery torn down, exactly what
// the rest of the group (and its clients) fail over around.
func (n *Node) Kill() {
	if n.d != nil {
		n.d.Kill()
	}
	n.Stop()
}

// currentBacklog returns the backlog for the current epoch (swapped on
// self-promotion).
func (n *Node) currentBacklog() *backlog {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.bl
}

// clientAddrOf resolves a replica's serving address.
func (n *Node) clientAddrOf(id uint32) string {
	for _, p := range n.cfg.Peers {
		if p.ID == id {
			return p.ClientAddr
		}
	}
	return ""
}

// haAddrOf resolves a replica's replication address.
func (n *Node) haAddrOf(id uint32) string {
	for _, p := range n.cfg.Peers {
		if p.ID == id {
			return p.HAAddr
		}
	}
	return ""
}

// view returns the current (epoch, primary).
func (n *Node) view() (uint64, uint32) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch, n.primary
}

// track/untrack register replication connections for teardown.
func (n *Node) track(c net.Conn) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	select {
	case <-n.stop:
		return false
	default:
	}
	n.conns[c] = struct{}{}
	return true
}

func (n *Node) untrack(c net.Conn) {
	n.mu.Lock()
	delete(n.conns, c)
	n.mu.Unlock()
}

// observe records a liveness proof for peer id.
func (n *Node) observe(id uint32) {
	n.mu.Lock()
	n.lastSeen[id] = time.Now()
	n.mu.Unlock()
}

// adopt merges a peer's (epoch, primary) claim: a strictly higher epoch
// always wins, and on an epoch tie the lower primary ID wins (the
// deterministic tie-break that collapses split brains from symmetric
// elections). Demotion and follower resync both flow from here.
func (n *Node) adopt(epoch uint64, primary uint32) {
	n.mu.Lock()
	if epoch < n.epoch || (epoch == n.epoch && primary >= n.primary) {
		n.mu.Unlock()
		return
	}
	n.epoch, n.primary = epoch, primary
	becomePrimary := primary == n.cfg.ID
	sc := n.syncConn
	n.syncConn = nil
	n.mu.Unlock()

	n.primaryNow.Store(becomePrimary)
	if !becomePrimary {
		// Resync against the new primary from scratch: its backlog is a
		// fresh sequence space and our cursor means nothing in it.
		n.applied.Store(0)
		if sc != nil {
			sc.Close() // kick the sync loop onto the new primary
		}
	}
}

// electionLoop promotes this node when the primary has gone silent and
// no lower-ID replica is live to take over.
func (n *Node) electionLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
		}
		n.electTick(time.Now())
	}
}

// electTick runs one election check at the given instant.
func (n *Node) electTick(now time.Time) {
	n.mu.Lock()
	if n.primary == n.cfg.ID {
		n.mu.Unlock()
		return
	}
	if now.Sub(n.lastSeen[n.primary]) <= n.cfg.HeartbeatTimeout {
		n.mu.Unlock()
		return
	}
	// The primary is dead to us. Promote only if no live replica has a
	// lower ID than ours (the dead primary excluded).
	for _, p := range n.cfg.Peers {
		if p.ID == n.cfg.ID || p.ID == n.primary {
			continue
		}
		if p.ID < n.cfg.ID && now.Sub(n.lastSeen[p.ID]) <= n.cfg.HeartbeatTimeout {
			n.mu.Unlock()
			return
		}
	}
	n.epoch++
	n.primary = n.cfg.ID
	n.bl = newBacklog(n.cfg.BacklogCap)
	close(n.promoteCh)
	n.promoteCh = make(chan struct{})
	sc := n.syncConn
	n.syncConn = nil
	n.mu.Unlock()

	n.primaryNow.Store(true)
	if sc != nil {
		sc.Close()
	}
}

// promoteSignal returns a channel closed at the next self-promotion.
func (n *Node) promoteSignal() <-chan struct{} {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.promoteCh
}

// heartbeatLoop dials peer and beacons this node's liveness and election
// view every interval; a self-promotion is pushed immediately as a
// Promote message rather than waiting out the tick.
func (n *Node) heartbeatLoop(p Peer) {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.HeartbeatEvery)
	defer t.Stop()
	var conn net.Conn
	var bw *bufio.Writer
	drop := func() {
		if conn != nil {
			n.untrack(conn)
			conn.Close()
			conn, bw = nil, nil
		}
	}
	defer drop()
	for {
		promoted := false
		select {
		case <-n.stop:
			return
		case <-t.C:
		case <-n.promoteSignal():
			promoted = true
		}
		if conn == nil {
			c, err := net.DialTimeout("tcp", p.HAAddr, n.cfg.HeartbeatTimeout)
			if err != nil {
				continue
			}
			conn, bw = c, bufio.NewWriter(c)
			if !n.track(conn) {
				conn.Close()
				return
			}
			epoch, _ := n.view()
			if err := wire.WriteMessage(bw, &wire.Hello{
				ReplicaID: n.cfg.ID, Mode: wire.ModeHeartbeat, Epoch: epoch,
			}); err != nil {
				drop()
				continue
			}
		}
		epoch, primary := n.view()
		var err error
		if promoted && primary == n.cfg.ID {
			err = wire.WriteMessage(bw, &wire.Promote{ReplicaID: n.cfg.ID, Epoch: epoch})
		}
		if err == nil {
			err = wire.WriteMessage(bw, &wire.Heartbeat{
				ReplicaID: n.cfg.ID, Epoch: epoch, Primary: primary,
				Seq: n.currentBacklog().latest(),
			})
		}
		if err == nil {
			err = bw.Flush()
		}
		if err != nil {
			drop()
		}
	}
}

// acceptLoop serves inbound replication connections: heartbeat receivers
// and sync senders, discriminated by the Hello.
func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return
		}
		if !n.track(conn) {
			conn.Close()
			return
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			defer n.untrack(conn)
			defer conn.Close()
			n.handleConn(conn)
		}()
	}
}

// handleConn runs one inbound replication connection.
func (n *Node) handleConn(conn net.Conn) {
	m, err := wire.ReadMessage(conn)
	if err != nil {
		return
	}
	hello, ok := m.(*wire.Hello)
	if !ok {
		return
	}
	switch hello.Mode {
	case wire.ModeHeartbeat:
		n.observe(hello.ReplicaID)
		for {
			m, err := wire.ReadMessage(conn)
			if err != nil {
				return
			}
			switch hb := m.(type) {
			case *wire.Heartbeat:
				n.observe(hb.ReplicaID)
				n.adopt(hb.Epoch, hb.Primary)
			case *wire.Promote:
				n.observe(hb.ReplicaID)
				n.adopt(hb.Epoch, hb.ReplicaID)
			}
		}
	case wire.ModeSync:
		n.runSender(conn, hello.FromSeq)
	}
}

package ha

import (
	"bufio"
	"net"
	"time"

	"repro/internal/routeserver"
	"repro/internal/synthesis"
	"repro/internal/wire"
)

// runSender serves one follower's sync stream: snapshot if the follower's
// cursor cannot be served from the backlog (a fresh follower at FromSeq 0,
// or a laggard whose cursor fell behind the put-trim horizon), then the
// incremental tail, blocking on backlog appends. Returns when the
// connection breaks, the node stops, or this replica loses the primary
// role (including a re-promotion that swapped the backlog).
func (n *Node) runSender(conn net.Conn, from uint64) {
	bw := bufio.NewWriter(conn)
	if !n.primaryNow.Load() {
		_, primary := n.view()
		_ = wire.WriteMessage(bw, &wire.NotPrimary{PrimaryID: primary, Addr: n.haAddrOf(primary)})
		_ = bw.Flush()
		return
	}
	// Reader watchdog: the follower never writes after its Hello, so a
	// read returning means the connection died — wake the idle wait below.
	gone := make(chan struct{})
	go func() {
		defer close(gone)
		buf := make([]byte, 1)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
		}
	}()
	bl := n.currentBacklog()
	cursor := from
	if cursor > bl.latest() {
		// A cursor ahead of this backlog belongs to another epoch's
		// sequence space: resync from scratch.
		cursor = 0
	}
	needSnapshot := cursor == 0
	for {
		if !n.primaryNow.Load() || n.currentBacklog() != bl {
			_, primary := n.view()
			_ = wire.WriteMessage(bw, &wire.NotPrimary{PrimaryID: primary, Addr: n.haAddrOf(primary)})
			_ = bw.Flush()
			return
		}
		if needSnapshot {
			var err error
			if cursor, err = n.sendSnapshot(bw, cursor, bl); err != nil {
				return
			}
			needSnapshot = false
		}
		ents, ok := bl.from(cursor)
		if !ok {
			needSnapshot = true
			continue
		}
		if len(ents) == 0 {
			if bw.Flush() != nil {
				return
			}
			select {
			case <-n.stop:
				return
			case <-gone:
				return
			case <-bl.waitChanged():
			case <-time.After(n.cfg.HeartbeatEvery):
				// Re-check the primary role even with nothing to send.
			}
			continue
		}
		for i := range ents {
			if wire.WriteMessage(bw, &ents[i]) != nil {
				return
			}
			cursor = ents[i].Seq
		}
		if bw.Flush() != nil {
			return
		}
	}
}

// sendSnapshot ships a consistent warm-state cut: the control history the
// follower is missing (real sequence numbers, applied incrementally so a
// mid-snapshot death resumes from the last control op), then every
// current cache entry stamped with the cut sequence S0, then the Done
// marker that advances the follower's cursor to S0. The cut is taken
// under the strategy lock, so no insert or mutation interleaves between
// recording S0 and copying the cache.
func (n *Node) sendSnapshot(bw *bufio.Writer, cursor uint64, bl *backlog) (uint64, error) {
	var s0 uint64
	var ctls []wire.SyncEntry
	entries := n.srv.DumpEntries(func() {
		s0 = bl.latest()
		ctls = bl.ctlsIn(cursor, s0)
	})
	if err := wire.WriteMessage(bw, &wire.SyncSnapshot{
		Seq: s0, Count: uint32(len(ctls) + len(entries)),
	}); err != nil {
		return 0, err
	}
	for i := range ctls {
		if err := wire.WriteMessage(bw, &ctls[i]); err != nil {
			return 0, err
		}
	}
	for _, ce := range entries {
		e := wire.SyncEntry{
			Seq: s0, Op: wire.SyncPut, Req: ce.Key,
			Found: ce.Res.Found, Path: ce.Res.Path,
			Links: ce.Fp.Links, Terms: ce.Fp.Terms,
		}
		if err := wire.WriteMessage(bw, &e); err != nil {
			return 0, err
		}
	}
	if err := wire.WriteMessage(bw, &wire.SyncSnapshot{Seq: s0, Done: true}); err != nil {
		return 0, err
	}
	return s0, bw.Flush()
}

// syncLoop is the follower's half: dial the primary's replication
// listener, announce the local cursor, and apply the stream. It idles
// while this replica is primary and redials — against whatever replica
// the election view names — whenever the connection breaks or an epoch
// change resets the cursor.
func (n *Node) syncLoop() {
	defer n.wg.Done()
	for {
		select {
		case <-n.stop:
			return
		default:
		}
		epoch, primary := n.view()
		if primary == n.cfg.ID {
			n.idle()
			continue
		}
		addr := n.haAddrOf(primary)
		conn, err := net.DialTimeout("tcp", addr, n.cfg.HeartbeatTimeout)
		if err != nil {
			n.idle()
			continue
		}
		if !n.track(conn) {
			conn.Close()
			return
		}
		n.mu.Lock()
		stale := n.epoch != epoch
		if !stale {
			n.syncConn = conn
		}
		n.mu.Unlock()
		if stale {
			n.untrack(conn)
			conn.Close()
			continue
		}
		n.followStream(conn)
		n.mu.Lock()
		if n.syncConn == conn {
			n.syncConn = nil
		}
		n.mu.Unlock()
		n.untrack(conn)
		conn.Close()
		n.idle() // don't hammer a dead primary between election ticks
	}
}

// idle waits one heartbeat interval or until stop.
func (n *Node) idle() {
	select {
	case <-n.stop:
	case <-time.After(n.cfg.HeartbeatEvery):
	}
}

// followStream announces the cursor and applies entries until the
// connection breaks or the sender bows out.
func (n *Node) followStream(conn net.Conn) {
	bw := bufio.NewWriter(conn)
	if err := wire.WriteMessage(bw, &wire.Hello{
		ReplicaID: n.cfg.ID, Mode: wire.ModeSync, FromSeq: n.applied.Load(),
	}); err != nil {
		return
	}
	if err := bw.Flush(); err != nil {
		return
	}
	br := bufio.NewReader(conn)
	inSnapshot := false
	for {
		m, err := wire.ReadMessage(br)
		if err != nil {
			return
		}
		switch e := m.(type) {
		case *wire.SyncEntry:
			n.applyEntry(e, inSnapshot)
		case *wire.SyncSnapshot:
			if e.Done {
				// The warm cut is fully installed: the cursor jumps to the
				// cut sequence in one step.
				if e.Seq > n.applied.Load() {
					n.applied.Store(e.Seq)
				}
				inSnapshot = false
			} else {
				inSnapshot = true
			}
		case *wire.NotPrimary:
			// Stale view: hang up and let heartbeats re-aim the dial.
			return
		}
	}
}

// applyEntry applies one replicated entry. Control ops replay through the
// local backend, so scoped invalidation evicts exactly what it evicted on
// the primary and retained entries stay legal; cache puts install
// directly. During a snapshot, puts carry the cut sequence and do not
// advance the cursor — only the Done marker does, so a half-applied
// snapshot resumes legal but colder.
func (n *Node) applyEntry(e *wire.SyncEntry, inSnapshot bool) {
	if e.Op == wire.SyncCtl {
		if e.Seq <= n.applied.Load() {
			return // already applied before a reconnect
		}
		// A control op replays through the one resolver the primary ran it
		// through. Its error is tolerated: a fail of an already-absent link
		// or a restore of a link not failed here can occur when a
		// snapshot's control suffix overlaps ops applied before a
		// reconnect, and refusing them leaves the world as it should be.
		_, _ = n.be.Control(e.Ctl)
		n.applied.Store(e.Seq)
		return
	}
	if !inSnapshot && e.Seq <= n.applied.Load() {
		return
	}
	n.srv.InstallEntry(
		e.Req,
		routeserver.Result{Path: e.Path, Found: e.Found},
		synthesis.Footprint{Links: e.Links, Terms: e.Terms},
	)
	if !inSnapshot {
		n.applied.Store(e.Seq)
	}
}

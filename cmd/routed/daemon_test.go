package main

import (
	"errors"
	"net"
	"strings"
	"testing"

	"repro/internal/routeserver/daemon"
)

// TestSessionParityLineVsProtocol pins what "line mode is a text skin over
// the protocol" means: one script — queries, fail/restore/policy churn, the
// data-plane lifecycle, plan/commit with its staleness and unknown-plan
// refusals, usage errors, stats — served twice, by Backend.Handle in process
// and by a client's round trips to a TCP daemon over an identically built
// world, must leave the same transcript byte for byte. The one tolerated
// difference is the "conns:" line a daemon's stats carry. ("state" is asked
// before the first repair: afterwards it quotes a wall-clock resetup latency.)
func TestSessionParityLineVsProtocol(t *testing.T) {
	const script = `install 1 4
send 1
1 4
fail 2 4
send 1
state
1 4
repair
restore 2 4
1 4
fail 9 9
restore 9 9
policy 2 100
policy 99999 5
1 4
invalidate
1 4
99 98
1 4 0 0 268
refresh
tick
tick 100
send 1
send 7
plan fail 2 4; policy 2 50
commit 1
1 4
restore 2 4
plan fail 2 4
policy 2 1
commit 2
commit 99
plan
plan invalidate
commit x
tick 0
stats
`
	inProcess := session(t, script)

	g, db, srv, dp := testWorld(t)
	d := daemon.New(daemon.NewBackend(srv, dp, g, db), daemon.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go d.Serve(ln)
	defer d.Drain()
	cl, err := daemon.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var out strings.Builder
	if err := serve(strings.NewReader(script), &out, cl.Do); err != nil {
		t.Fatalf("serve over the wire: %v", err)
	}

	const conns = "conns: 1 accepted, 0 evicted-slow, 0 refused\n"
	overWire := strings.Replace(out.String(), conns, "", 1)
	if overWire == out.String() {
		t.Errorf("the daemon's stats carry no %q", conns)
	}
	if inProcess != overWire {
		t.Fatalf("line mode in process and over the wire diverged.\nin process:\n%s\nover the wire:\n%s", inProcess, overWire)
	}
	// Guard against two empty or all-error transcripts agreeing.
	for _, want := range []string{"handle 1 via AD1>AD2>AD4", "flushed 3 handle entries", "repaired 1/1 flows",
		"committed plan 1", "is stale", "unknown plan 99", "bad number \"268\"", "gen 1: "} {
		if !strings.Contains(inProcess, want) {
			t.Errorf("transcript lacks %q:\n%s", want, inProcess)
		}
	}
}

// TestServeLongLines pins the scanner regression: a line beyond
// bufio.Scanner's 64KB default must still be served, and input beyond
// maxLineBytes must surface a read error instead of masquerading as a
// clean quit.
func TestServeLongLines(t *testing.T) {
	long := "# " + strings.Repeat("x", 100*1024)
	out := session(t, long+"\n1 4\nquit\n")
	if !strings.Contains(out, "AD1>AD2>AD4") {
		t.Fatalf("session died on a 100KB line:\n%s", out)
	}

	g, db, srv, dp := testWorld(t)
	var sb strings.Builder
	huge := strings.Repeat("y", maxLineBytes+1)
	err := serve(strings.NewReader(huge), &sb, local(daemon.NewBackend(srv, dp, g, db)))
	if err == nil {
		t.Fatal("an over-limit line was not surfaced as an error")
	}
	if !strings.Contains(sb.String(), "read error") {
		t.Fatalf("read error not reported to the session:\n%s", sb.String())
	}
}

// TestRemoteLineModeEndsOnFailedRoundTrip: a follower's redirect (or a dead
// connection) is one error line and the end of the session — the lines after
// it are not sent — while what a follower does serve, stats, is rendered as
// ever.
func TestRemoteLineModeEndsOnFailedRoundTrip(t *testing.T) {
	g, db, srv, dp := testWorld(t)
	d := daemon.New(daemon.NewBackend(srv, dp, g, db), daemon.Config{})
	d.SetRedirect(func() (uint32, string, bool) { return 2, "10.0.0.2:4242", true })
	server, client := net.Pipe()
	go d.ServeConn(server)
	cl := daemon.NewClient(client)
	defer cl.Close()

	var out strings.Builder
	err := serve(strings.NewReader("stats\n1 4\nstats\n"), &out, cl.Do)
	var np *daemon.NotPrimaryError
	if !errors.As(err, &np) {
		t.Fatalf("serve on a follower returned %v, want the redirect", err)
	}
	want := "gen 0: 0 queries, 0 hits, 0 coalesced, 0 misses, 0 failures, 0 cached\n" +
		"conns: 1 accepted, 0 evicted-slow, 0 refused\n" +
		"error: daemon: not primary, redirect to replica 2 at 10.0.0.2:4242\n"
	if out.String() != want {
		t.Errorf("transcript:\n%s\nwant:\n%s", out.String(), want)
	}
}

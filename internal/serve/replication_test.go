package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/replicate"
)

// The cluster e2e: an in-process leader and follower wired over real
// listeners, the follower running the same discovery/replicator loops
// a -follow daemon runs. Fault injection severs the wire mid-frame,
// kills and restarts either side, and forges duplicate WAL records;
// every scenario must converge to a follower whose IDB is
// tuple-identical to the leader's at the same sequence number.

const replSrc = `
	tc(X, Y) :- edge(X, Y).
	tc(X, Y) :- tc(X, Z), edge(Z, Y).
	edge(n0, n1).
`

// replCluster is one leader + follower pair on real HTTP listeners.
type replCluster struct {
	leader     *Server
	leaderTS   *httptest.Server
	follower   *Server
	followerTS *httptest.Server
	stop       context.CancelFunc
}

func durableServer(t *testing.T, dir string, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Durability = &durable.Options{Dir: dir, CheckpointEvery: 1000}
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		// Server first: closing it detaches replication slots, ending any
		// in-flight stream the listener close would otherwise wait on.
		srv.Close()
		ts.Close()
	})
	return srv, ts
}

// startFollower brings up a follower of leaderURL over dir, recovering
// whatever the directory already holds first (exactly like a -follow
// daemon restart).
func startFollower(t *testing.T, dir, leaderURL string, cfg Config) (*Server, *httptest.Server, context.CancelFunc) {
	t.Helper()
	cfg.Follow = leaderURL
	if cfg.FollowPoll == 0 {
		cfg.FollowPoll = 20 * time.Millisecond
	}
	if cfg.Heartbeat == 0 {
		cfg.Heartbeat = 20 * time.Millisecond
	}
	srv, ts := durableServer(t, dir, cfg)
	if _, err := srv.RecoverSessions(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	if err := srv.StartFollower(ctx); err != nil {
		t.Fatal(err)
	}
	return srv, ts, cancel
}

func startCluster(t *testing.T, leaderCfg, followerCfg Config) *replCluster {
	t.Helper()
	if leaderCfg.Heartbeat == 0 {
		leaderCfg.Heartbeat = 20 * time.Millisecond
	}
	c := &replCluster{}
	c.leader, c.leaderTS = durableServer(t, t.TempDir(), leaderCfg)
	c.follower, c.followerTS, c.stop = startFollower(t, t.TempDir(), c.leaderTS.URL, followerCfg)
	return c
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitConverged blocks until the follower holds the session at the
// leader's sequence with a tuple-identical database.
func waitConverged(t *testing.T, leader, follower *Server, name string) {
	t.Helper()
	waitFor(t, "convergence of "+name, func() bool {
		ls, fs := leader.session(name), follower.session(name)
		if ls == nil || fs == nil {
			return false
		}
		l, f := ls.snap.Load(), fs.snap.Load()
		return l.db != nil && f.db != nil && l.seq == f.seq && l.db.Equal(f.db)
	})
}

func insertFacts(t *testing.T, ts *httptest.Server, session, facts string) {
	t.Helper()
	mustOK(t, ts, "POST", "/v1/sessions/"+session+"/changes", addFacts(facts), nil)
}

// ready reports whether GET /readyz answers 200.
func ready(ts *httptest.Server) bool {
	resp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

func scrapeMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func metricValue(t *testing.T, exposition, name string) string {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return v
		}
	}
	t.Fatalf("metric %s not in exposition:\n%s", name, exposition)
	return ""
}

// TestReplicationConverges is the happy path: bootstrap from the
// leader's checkpoint, live batch apply, identical IDB at identical
// sequence, healthy lag gauges and stats on both sides.
func TestReplicationConverges(t *testing.T) {
	c := startCluster(t, Config{}, Config{})
	mustOK(t, c.leaderTS, "POST", "/v1/sessions/m", LoadRequest{Program: replSrc}, nil)
	insertFacts(t, c.leaderTS, "m", "edge(n1, n2).")
	insertFacts(t, c.leaderTS, "m", "edge(n2, n3).")
	waitConverged(t, c.leader, c.follower, "m")

	// The follower serves the replicated closure read-only, reporting
	// the durable sequence it was served at.
	var q QueryResponse
	mustOK(t, c.followerTS, "POST", "/v1/sessions/m/query", QueryRequest{Goal: "tc(n0, Y)", Limit: 100}, &q)
	if q.Total != 3 {
		t.Fatalf("follower tc(n0, Y) total = %d, want 3", q.Total)
	}
	if q.Seq != c.leader.session("m").seq.Load() {
		t.Fatalf("follower query seq = %d, want leader seq %d", q.Seq, c.leader.session("m").seq.Load())
	}

	// Stats name the roles on both ends.
	fst := c.follower.session("m").stats()
	if fst.Replication == nil || fst.Replication.Role != "follower" || !fst.Replication.Connected {
		t.Fatalf("follower replication stats = %+v, want connected follower", fst.Replication)
	}
	if fst.Replication.Leader != c.leaderTS.URL {
		t.Fatalf("follower stats leader = %q, want %q", fst.Replication.Leader, c.leaderTS.URL)
	}
	lst := c.leader.session("m").stats()
	if lst.Replication == nil || lst.Replication.Role != "leader" || lst.Replication.Slots != 1 {
		t.Fatalf("leader replication stats = %+v, want leader with 1 slot", lst.Replication)
	}

	// Idle lag reads 0 on both /metrics; the durable gauges are live.
	waitFor(t, "follower heartbeat catch-up", func() bool {
		return metricValue(t, scrapeMetrics(t, c.followerTS), "replication_lag_seqs") == "0"
	})
	for _, ts := range []*httptest.Server{c.leaderTS, c.followerTS} {
		m := scrapeMetrics(t, ts)
		if got := metricValue(t, m, "replication_lag_seqs"); got != "0" {
			t.Fatalf("idle replication_lag_seqs = %s, want 0", got)
		}
		if got := metricValue(t, m, "durable_wal_seq"); got != "3" { // load + 2 inserts
			t.Fatalf("durable_wal_seq = %s, want 3", got)
		}
		metricValue(t, m, "durable_checkpoint_age_seconds") // present
	}
	if got := metricValue(t, scrapeMetrics(t, c.leaderTS), "replication_slots"); got != "1" {
		t.Fatalf("leader replication_slots = %s, want 1", got)
	}

	// Health and readiness: both live, both ready (the follower because
	// it is caught up).
	for _, ts := range []*httptest.Server{c.leaderTS, c.followerTS} {
		resp, err := ts.Client().Get(ts.URL + "/healthz")
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz = %v, %v", resp, err)
		}
		resp.Body.Close()
	}
	waitFor(t, "follower readyz", func() bool { return ready(c.followerTS) })
}

// TestFollowerReadyMeansAnswering polls a follower's /readyz and /query
// while it bootstraps and then tails N single-edge commits: every ready
// is followed by a query that answers, and every reply at seq k is
// exactly the state at k. The load is seq 1 with one edge out of n0 and
// each commit extends the chain by one, so that state has k tc(n0, _)
// rows. Run with -race.
func TestFollowerReadyMeansAnswering(t *testing.T) {
	leader, leaderTS := durableServer(t, t.TempDir(), Config{Heartbeat: 20 * time.Millisecond})
	mustOK(t, leaderTS, "POST", "/v1/sessions/m", LoadRequest{Program: replSrc}, nil)
	insertFacts(t, leaderTS, "m", "edge(n1, n2).")
	follower, followerTS, _ := startFollower(t, t.TempDir(), leaderTS.URL, Config{})

	stop := make(chan struct{})
	done := make(chan error, 1)
	var readies atomic.Int64
	poll := func() error {
		for {
			select {
			case <-stop:
				return nil
			default:
			}
			wasReady := ready(followerTS)
			var q QueryResponse
			code := call(t, followerTS, "POST", "/v1/sessions/m/query", QueryRequest{Goal: "tc(n0, Y)", Limit: 1}, &q)
			switch {
			case wasReady && code != http.StatusOK:
				return fmt.Errorf("/readyz said ready, then /query answered %d", code)
			case code == http.StatusOK && q.Total != int(q.Seq):
				return fmt.Errorf("reply at seq %d has %d rows, the state at that seq has %d", q.Seq, q.Total, q.Seq)
			case wasReady:
				readies.Add(1)
			}
		}
	}
	go func() { done <- poll() }()
	for i := 2; i < 42; i++ {
		insertFacts(t, leaderTS, "m", fmt.Sprintf("edge(n%d, n%d).", i, i+1))
	}
	waitConverged(t, leader, follower, "m")
	waitFor(t, "the reader to find the follower ready and answering", func() bool {
		return len(done) > 0 || readies.Load() > 0
	})
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestFollowerReplaysThroughNegation: a follower applies batches that
// reach a negated predicate through the same sweep the leader committed
// them with — bootstrap, live apply, and a restart that replays its own
// WAL tail all converge on the leader's database with no recompute.
func TestFollowerReplaysThroughNegation(t *testing.T) {
	leader, leaderTS := durableServer(t, t.TempDir(), Config{Heartbeat: 20 * time.Millisecond})
	mustOK(t, leaderTS, "POST", "/v1/sessions/m", LoadRequest{Program: negationSrc}, nil)
	mustOK(t, leaderTS, "POST", "/v1/sessions/m/changes", negationChanges[0], nil)

	// replays asserts the session replayed at least one batch, all of
	// them through the sweep.
	replays := func(srv *Server, what string) {
		t.Helper()
		sess := srv.session("m")
		if incr, recomp := sess.replayIncremental.Load(), sess.replayRecomputes.Load(); incr == 0 || recomp != 0 {
			t.Fatalf("%s replayed %d batches incrementally and %d by recompute, want > 0 and 0", what, incr, recomp)
		}
	}

	dir := t.TempDir()
	f1, _, stop := startFollower(t, dir, leaderTS.URL, Config{})
	mustOK(t, leaderTS, "POST", "/v1/sessions/m/changes", negationChanges[1], nil)
	waitConverged(t, leader, f1, "m")
	replays(f1, "live follower")
	stop()
	f1.Close()

	// The restarted follower recovers its checkpoint, replays its WAL
	// tail, then tails the leader for the batch it missed.
	mustOK(t, leaderTS, "POST", "/v1/sessions/m/changes", negationChanges[2], nil)
	f2, f2TS, _ := startFollower(t, dir, leaderTS.URL, Config{})
	waitConverged(t, leader, f2, "m")
	replays(f2, "restarted follower")

	var q QueryResponse
	mustOK(t, f2TS, "POST", "/v1/sessions/m/query", QueryRequest{Goal: "unreach(X, Y)"}, &q)
	if q.Total != 6 {
		t.Fatalf("follower unreach total = %d, want 6", q.Total)
	}
}

// TestFollowerRejectsWrites: every mutating route on a replica answers
// 403 not_leader naming the leader, with a Retry-After nudge.
func TestFollowerRejectsWrites(t *testing.T) {
	c := startCluster(t, Config{}, Config{})
	mustOK(t, c.leaderTS, "POST", "/v1/sessions/m", LoadRequest{Program: replSrc}, nil)
	waitConverged(t, c.leader, c.follower, "m")

	cases := []struct {
		method, path string
		body         any
	}{
		{"POST", "/v1/sessions/m", LoadRequest{Program: replSrc}},
		{"POST", "/v1/sessions/m/changes", addFacts("edge(x, y).")},
		{"POST", "/v1/sessions/m/changes", delFacts("edge(n0, n1).")},
		{"POST", "/v1/sessions/m/checkpoint", nil},
		{"DELETE", "/v1/sessions/m", nil},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, c.followerTS.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if tc.body != nil {
			b, _ := json.Marshal(tc.body)
			req, err = http.NewRequest(tc.method, c.followerTS.URL+tc.path, strings.NewReader(string(b)))
			if err != nil {
				t.Fatal(err)
			}
		}
		resp, err := c.followerTS.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var er ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatalf("%s %s: decode: %v", tc.method, tc.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden || er.Error.Code != CodeNotLeader {
			t.Fatalf("%s %s = %d %q, want 403 not_leader", tc.method, tc.path, resp.StatusCode, er.Error.Code)
		}
		if er.Error.Leader != c.leaderTS.URL {
			t.Fatalf("%s %s leader = %q, want %q", tc.method, tc.path, er.Error.Leader, c.leaderTS.URL)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s %s: no Retry-After on not_leader", tc.method, tc.path)
		}
	}
	// The session is untouched by the rejected writes.
	waitConverged(t, c.leader, c.follower, "m")
}

// TestFollowerReadyzCatchingUp: a follower that cannot reach its leader
// advertises catching_up, never ready.
func TestFollowerReadyzCatchingUp(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // nothing listens here any more
	_, fts, _ := startFollower(t, t.TempDir(), deadURL, Config{})

	resp, err := fts.Client().Get(fts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz without a leader = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("catching_up readyz has no Retry-After")
	}
	var body struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "catching_up" {
		t.Fatalf("readyz status = %q, want catching_up", body.Status)
	}
}

// TestLeaderReloadForcesReBootstrap: a program load resets the leader's
// state wholesale (and consumes a sequence number), so the follower
// must throw away its copy and re-bootstrap from the new checkpoint.
func TestLeaderReloadForcesReBootstrap(t *testing.T) {
	c := startCluster(t, Config{}, Config{})
	mustOK(t, c.leaderTS, "POST", "/v1/sessions/m", LoadRequest{Program: replSrc}, nil)
	insertFacts(t, c.leaderTS, "m", "edge(n1, n2).")
	waitConverged(t, c.leader, c.follower, "m")

	mustOK(t, c.leaderTS, "POST", "/v1/sessions/m", LoadRequest{Program: `
		path(X, Y) :- link(X, Y).
		link(p, q).
		link(q, r).
	`}, nil)
	insertFacts(t, c.leaderTS, "m", "link(r, s).")
	waitConverged(t, c.leader, c.follower, "m")

	var q QueryResponse
	mustOK(t, c.followerTS, "POST", "/v1/sessions/m/query", QueryRequest{Goal: "path(X, Y)", Limit: 100}, &q)
	if q.Total != 3 {
		t.Fatalf("follower path total after reload = %d, want 3", q.Total)
	}
}

// TestSessionDropPropagates: dropping a session on the leader drops it
// on the follower at the next discovery tick.
func TestSessionDropPropagates(t *testing.T) {
	c := startCluster(t, Config{}, Config{})
	mustOK(t, c.leaderTS, "POST", "/v1/sessions/m", LoadRequest{Program: replSrc}, nil)
	mustOK(t, c.leaderTS, "POST", "/v1/sessions/keep", LoadRequest{Program: replSrc}, nil)
	waitConverged(t, c.leader, c.follower, "m")
	waitConverged(t, c.leader, c.follower, "keep")

	if code := call(t, c.leaderTS, "DELETE", "/v1/sessions/m", nil, nil); code != http.StatusNoContent {
		t.Fatalf("drop = %d, want 204", code)
	}
	waitFor(t, "follower drop of m", func() bool { return c.follower.session("m") == nil })
	if c.follower.session("keep") == nil {
		t.Fatal("unrelated session dropped alongside")
	}
}

// chokeProxy forwards one backend with byte budgets on replication
// streams. Streams are recognized by content, not by URL: the client
// pools connections, so a /replicate request may ride a connection
// that already served discovery polls. Once the stream magic
// ("DLRS\x01") appears in the leader→follower bytes the connection IS
// the stream (the response never ends), and the i-th such stream
// relays at most budgets[i] more bytes before being severed —
// mid-frame, as far as the decoder is concerned. Other traffic and
// streams beyond the budget list relay freely. The backend can be
// swapped to emulate a leader restart behind a stable address.
type chokeProxy struct {
	ln      net.Listener
	backend atomic.Value // string host:port
	budgets []int64
	mu      sync.Mutex
	streams int
}

func startChokeProxy(t *testing.T, backend string, budgets []int64) *chokeProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &chokeProxy{ln: ln, budgets: budgets}
	p.backend.Store(backend)
	t.Cleanup(func() { ln.Close() })
	go p.accept()
	return p
}

func (p *chokeProxy) URL() string { return "http://" + p.ln.Addr().String() }

func (p *chokeProxy) setBackend(addr string) { p.backend.Store(addr) }

func (p *chokeProxy) accept() {
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		go p.relay(client)
	}
}

func (p *chokeProxy) relay(client net.Conn) {
	defer client.Close()
	backend, err := net.Dial("tcp", p.backend.Load().(string))
	if err != nil {
		return
	}
	defer backend.Close()
	go io.Copy(backend, client) //nolint:errcheck // request side, best effort

	// Relay leader→follower, scanning for the replication stream magic.
	// From the magic onward the connection carries the stream; count the
	// assigned budget down and sever when it runs out.
	magic := []byte("DLRS\x01")
	buf := make([]byte, 2048)
	var tail []byte       // last bytes of prior reads, in case the magic straddles a read
	var budget int64 = -1 // -1: unlimited
	counting := false
	for {
		n, rerr := backend.Read(buf)
		if n > 0 {
			chunk := buf[:n]
			cut := false
			if !counting {
				window := append(append([]byte(nil), tail...), chunk...)
				if i := bytes.Index(window, magic); i >= 0 {
					counting = true
					p.mu.Lock()
					if p.streams < len(p.budgets) {
						budget = p.budgets[p.streams]
					}
					p.streams++
					p.mu.Unlock()
					if budget >= 0 {
						// Stream bytes past the magic seen so far all sit in
						// this chunk (the forwarded tail is shorter than the
						// magic); keep only the budgeted prefix.
						excess := int64(len(window) - i - len(magic))
						if excess > budget {
							chunk = chunk[:int64(len(chunk))-(excess-budget)]
							cut = true
						} else {
							budget -= excess
						}
					}
				} else if len(window) > len(magic) {
					tail = window[len(window)-len(magic):]
				} else {
					tail = window
				}
			} else if budget >= 0 {
				if int64(len(chunk)) > budget {
					chunk = chunk[:budget]
					cut = true
				} else {
					budget -= int64(len(chunk))
				}
			}
			if len(chunk) > 0 {
				if _, werr := client.Write(chunk); werr != nil {
					return
				}
			}
			if cut {
				return // sever mid-stream
			}
		}
		if rerr != nil {
			return
		}
	}
}

func hostPort(t *testing.T, url string) string {
	t.Helper()
	return strings.TrimPrefix(url, "http://")
}

// TestStreamSeveredMidFrameRecovers: the first connections die after a
// few hundred bytes — inside the bootstrap snapshot, then inside batch
// frames. The follower must reconnect, resume from its durable
// sequence, and converge without ever applying a partial frame.
func TestStreamSeveredMidFrameRecovers(t *testing.T) {
	leader, leaderTS := durableServer(t, t.TempDir(), Config{Heartbeat: 20 * time.Millisecond})
	mustOK(t, leaderTS, "POST", "/v1/sessions/m", LoadRequest{Program: replSrc}, nil)
	for _, f := range []string{"edge(n1, n2).", "edge(n2, n3).", "edge(n3, n4)."} {
		insertFacts(t, leaderTS, "m", f)
	}

	// Budgets count stream bytes past the magic: sever inside the
	// bootstrap hello/snapshot, then inside batch frames, then relay
	// freely (the hello alone is ~100 bytes; the snapshot far more).
	proxy := startChokeProxy(t, hostPort(t, leaderTS.URL), []int64{120, 300, 600, 900})
	follower, followerTS, _ := startFollower(t, t.TempDir(), proxy.URL(), Config{})
	_ = followerTS
	waitConverged(t, leader, follower, "m")

	// Live writes keep flowing after the faults are done.
	insertFacts(t, leaderTS, "m", "edge(n4, n5).")
	waitConverged(t, leader, follower, "m")

	// The reconnect counter proves the faults actually bit.
	if got := follower.mReconnects.Load(); got < 2 {
		t.Fatalf("reconnects = %d, want >= 2 after severed streams", got)
	}
}

// TestLeaderRestartMidStream: the leader dies under its follower and
// comes back (same data directory, new listener) behind the proxy's
// stable address. The follower must keep serving reads while the
// leader is down, then resume and converge.
func TestLeaderRestartMidStream(t *testing.T) {
	leaderDir := t.TempDir()
	leader1 := New(Config{Heartbeat: 20 * time.Millisecond, Durability: &durable.Options{Dir: leaderDir, CheckpointEvery: 1000}})
	leaderTS1 := httptest.NewServer(leader1.Handler())
	mustOK(t, leaderTS1, "POST", "/v1/sessions/m", LoadRequest{Program: replSrc}, nil)
	insertFacts(t, leaderTS1, "m", "edge(n1, n2).")

	proxy := startChokeProxy(t, hostPort(t, leaderTS1.URL), nil)
	follower, followerTS, _ := startFollower(t, t.TempDir(), proxy.URL(), Config{})
	waitConverged(t, leader1, follower, "m")
	wantSeq := leader1.session("m").seq.Load()

	// Kill the leader mid-stream. Server.Close first: it detaches the
	// replication slots, which ends the in-flight stream the listener
	// close would otherwise wait on.
	leader1.Close()
	leaderTS1.Close()

	// The follower still answers reads from its replicated snapshot.
	var q QueryResponse
	mustOK(t, followerTS, "POST", "/v1/sessions/m/query", QueryRequest{Goal: "tc(n0, Y)", Limit: 100}, &q)
	if q.Total != 2 || q.Seq != wantSeq {
		t.Fatalf("follower read during leader outage = total %d seq %d, want 2 @ %d", q.Total, q.Seq, wantSeq)
	}

	// Restart the leader on the same directory; recovery brings back the
	// acknowledged state, the proxy points followers at the new listener.
	leader2, leaderTS2 := durableServer(t, leaderDir, Config{Heartbeat: 20 * time.Millisecond})
	if _, err := leader2.RecoverSessions(context.Background()); err != nil {
		t.Fatal(err)
	}
	proxy.setBackend(hostPort(t, leaderTS2.URL))

	insertFacts(t, leaderTS2, "m", "edge(n2, n3).")
	waitConverged(t, leader2, follower, "m")
}

// TestFollowerRestartResumesFromWAL: a restarted follower recovers its
// replicated state from its own data directory and resumes the stream
// from the recovered sequence — no snapshot re-ship.
func TestFollowerRestartResumesFromWAL(t *testing.T) {
	leader, leaderTS := durableServer(t, t.TempDir(), Config{Heartbeat: 20 * time.Millisecond})
	mustOK(t, leaderTS, "POST", "/v1/sessions/m", LoadRequest{Program: replSrc}, nil)
	insertFacts(t, leaderTS, "m", "edge(n1, n2).")

	followerDir := t.TempDir()
	follower1 := New(Config{Follow: leaderTS.URL, FollowPoll: 20 * time.Millisecond,
		Durability: &durable.Options{Dir: followerDir, CheckpointEvery: 1000}})
	followerTS1 := httptest.NewServer(follower1.Handler())
	ctx1, cancel1 := context.WithCancel(context.Background())
	if err := follower1.StartFollower(ctx1); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, leader, follower1, "m")

	// Crash the follower (no graceful drain of anything).
	cancel1()
	followerTS1.Close()
	follower1.Close()

	// The leader moves on while the follower is down.
	insertFacts(t, leaderTS, "m", "edge(n2, n3).")
	snapshotBytesBefore := leader.mSnapshotBytes.Load()

	follower2, _, _ := startFollower(t, followerDir, leaderTS.URL, Config{})
	waitConverged(t, leader, follower2, "m")
	if shipped := leader.mSnapshotBytes.Load(); shipped != snapshotBytesBefore {
		t.Fatalf("restart re-shipped a snapshot (%d -> %d bytes); want WAL resume", snapshotBytesBefore, shipped)
	}
}

// TestFollowerCrashMidApplyDuplicateAbsorbed forges a follower WAL that
// holds the next batch twice while its checkpoint lags. Only older
// binaries write that state — they appended a leader batch before
// applying it, so a failed apply and the reconnect's resend logged it
// again; a follower now applies first and appends once. The test keeps
// guarding recovery's at-most-once filter: a restarted follower must
// recover through the duplicate and converge.
func TestFollowerCrashMidApplyDuplicateAbsorbed(t *testing.T) {
	leader, leaderTS := durableServer(t, t.TempDir(), Config{Heartbeat: 20 * time.Millisecond})
	mustOK(t, leaderTS, "POST", "/v1/sessions/m", LoadRequest{Program: replSrc}, nil)
	insertFacts(t, leaderTS, "m", "edge(n1, n2).")

	followerDir := t.TempDir()
	follower1 := New(Config{Follow: leaderTS.URL, FollowPoll: 20 * time.Millisecond,
		Durability: &durable.Options{Dir: followerDir, CheckpointEvery: 1000}})
	followerTS1 := httptest.NewServer(follower1.Handler())
	ctx1, cancel1 := context.WithCancel(context.Background())
	if err := follower1.StartFollower(ctx1); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, leader, follower1, "m")
	crashedAt := follower1.session("m").seq.Load()
	cancel1()
	followerTS1.Close()
	follower1.Close()

	// The leader commits one more batch; forge the torn follower WAL by
	// appending it twice (the stream resend after a failed apply writes
	// the same record again).
	insertFacts(t, leaderTS, "m", "edge(n2, n3).")
	next, err := leader.session("m").dur.BatchesAfter(crashedAt)
	if err != nil || len(next) != 1 {
		t.Fatalf("BatchesAfter(%d) = %v, %v; want the one new batch", crashedAt, next, err)
	}
	fstore, err := durable.Open(durable.Options{Dir: followerDir, CheckpointEvery: 1000}, "m")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fstore.Recover(); err != nil { // opens the WAL tail for appends
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := fstore.Append(next[0]); err != nil {
			t.Fatal(err)
		}
	}
	fstore.Close()

	// Recovery replays the batch once, skips the duplicate, and the
	// replicator resumes past it.
	follower2, followerTS2, _ := startFollower(t, followerDir, leaderTS.URL, Config{})
	waitConverged(t, leader, follower2, "m")
	insertFacts(t, leaderTS, "m", "edge(n3, n4).")
	waitConverged(t, leader, follower2, "m")
	var q QueryResponse
	mustOK(t, followerTS2, "POST", "/v1/sessions/m/query", QueryRequest{Goal: "tc(n0, Y)", Limit: 100}, &q)
	if q.Total != 4 {
		t.Fatalf("follower closure after duplicate-WAL recovery = %d, want 4", q.Total)
	}
}

// TestFollowerAppliesInStrictOrder uses the apply hook to record every
// sequence the follower lands, just before it lands: the feed must be
// strictly contiguous even across bootstrap.
func TestFollowerAppliesInStrictOrder(t *testing.T) {
	leader, leaderTS := durableServer(t, t.TempDir(), Config{Heartbeat: 20 * time.Millisecond})
	mustOK(t, leaderTS, "POST", "/v1/sessions/m", LoadRequest{Program: replSrc}, nil)
	insertFacts(t, leaderTS, "m", "edge(n1, n2).")

	var mu sync.Mutex
	var applied []uint64
	follower := New(Config{Follow: leaderTS.URL, FollowPoll: 20 * time.Millisecond,
		Durability: &durable.Options{Dir: t.TempDir(), CheckpointEvery: 1000}})
	follower.testFollowerApply = func(name string, seq uint64) {
		mu.Lock()
		applied = append(applied, seq)
		mu.Unlock()
	}
	followerTS := httptest.NewServer(follower.Handler())
	t.Cleanup(func() {
		followerTS.Close()
		follower.Close()
	})
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	if err := follower.StartFollower(ctx); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, leader, follower, "m")
	for _, f := range []string{"edge(n2, n3).", "edge(n3, n4).", "edge(n4, n5)."} {
		insertFacts(t, leaderTS, "m", f)
	}
	waitConverged(t, leader, follower, "m")

	mu.Lock()
	defer mu.Unlock()
	if len(applied) == 0 {
		t.Fatal("apply hook never fired")
	}
	for i := 1; i < len(applied); i++ {
		if applied[i] != applied[i-1]+1 {
			t.Fatalf("non-contiguous apply order: %v", applied)
		}
	}
}

// TestSlotOverflowDetachesSlowStream: a slot whose consumer stalls is
// latched and closed by the committer without ever blocking a write;
// the buffered prefix stays drainable and contiguous.
func TestSlotOverflowDetachesSlowStream(t *testing.T) {
	leader, leaderTS := durableServer(t, t.TempDir(), Config{})
	mustOK(t, leaderTS, "POST", "/v1/sessions/m", LoadRequest{Program: replSrc}, nil)
	sess := leader.session("m")

	sess.mu.Lock()
	sl := replicate.NewSlot(1, sess.seq.Load())
	sess.slots.add(sl)
	start := sl.StartSeq
	sess.mu.Unlock()

	insertFacts(t, leaderTS, "m", "edge(n1, n2).") // buffered
	insertFacts(t, leaderTS, "m", "edge(n2, n3).") // overflows: nobody drains
	if !sl.Overflowed() || !sl.Closed() {
		t.Fatalf("slot after overflow: overflowed=%v closed=%v, want both", sl.Overflowed(), sl.Closed())
	}
	select {
	case b := <-sl.Batches():
		if b.Seq != start+1 {
			t.Fatalf("buffered batch seq = %d, want %d", b.Seq, start+1)
		}
	default:
		t.Fatal("buffered batch lost on overflow")
	}
	sess.slots.remove(sl)
	// Writes kept committing through the overflow.
	var q QueryResponse
	mustOK(t, leaderTS, "POST", "/v1/sessions/m/query", QueryRequest{Goal: "tc(n0, Y)", Limit: 100}, &q)
	if q.Total != 3 {
		t.Fatalf("leader closure = %d, want 3 (overflow must not block commits)", q.Total)
	}
}

// TestPromotion: a follower restarted on its own data directory
// WITHOUT Follow recovers through the ordinary ladder and becomes a
// writable leader holding every replicated tuple.
func TestPromotion(t *testing.T) {
	leader, leaderTS := durableServer(t, t.TempDir(), Config{Heartbeat: 20 * time.Millisecond})
	mustOK(t, leaderTS, "POST", "/v1/sessions/m", LoadRequest{Program: replSrc}, nil)
	insertFacts(t, leaderTS, "m", "edge(n1, n2).")
	insertFacts(t, leaderTS, "m", "edge(n2, n3).")

	followerDir := t.TempDir()
	follower, followerTS, cancel := startFollower(t, followerDir, leaderTS.URL, Config{})
	waitConverged(t, leader, follower, "m")
	wantDB := leader.session("m").snap.Load().db
	wantSeq := leader.session("m").seq.Load()

	// The leader is gone for good; the follower shuts down too. The
	// replicator stops first so no stream holds either listener open.
	cancel()
	leader.Close()
	leaderTS.Close()
	follower.Close()
	followerTS.Close()

	// Promote: same directory, no Follow.
	promoted, promotedTS := durableServer(t, followerDir, Config{})
	reports, err := promoted.RecoverSessions(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || reports[0].Err != "" {
		t.Fatalf("promotion recovery reports = %+v", reports)
	}
	if got := promoted.session("m").seq.Load(); got != wantSeq {
		t.Fatalf("promoted seq = %d, want %d", got, wantSeq)
	}
	if !promoted.session("m").snap.Load().db.Equal(wantDB) {
		t.Fatal("promoted database differs from the leader's final state")
	}

	// The promoted daemon takes writes again — it is a leader now.
	insertFacts(t, promotedTS, "m", "edge(n3, n4).")
	var q QueryResponse
	mustOK(t, promotedTS, "POST", "/v1/sessions/m/query", QueryRequest{Goal: "tc(n0, Y)", Limit: 100}, &q)
	if q.Total != 4 {
		t.Fatalf("promoted closure = %d, want 4", q.Total)
	}
}

// TestFollowerRelaysLiveBatches: a follower is a leader to the tier
// below it. With leader → f1 → f2 and a change-feed subscriber on f1,
// one live commit on the leader must reach f2 through f1's replication
// slot, and f1's subscriber must receive the leader's frame: f1 lands
// the batch through the same pipeline the leader committed it with,
// which offers it to both of f1's feeds.
func TestFollowerRelaysLiveBatches(t *testing.T) {
	leader, leaderTS := durableServer(t, t.TempDir(), Config{Heartbeat: 20 * time.Millisecond})
	mustOK(t, leaderTS, "POST", "/v1/sessions/m", LoadRequest{Program: replSrc}, nil)
	insertFacts(t, leaderTS, "m", "edge(n1, n2).")
	f1, f1TS, _ := startFollower(t, t.TempDir(), leaderTS.URL, Config{})
	waitConverged(t, leader, f1, "m")
	f2, _, _ := startFollower(t, t.TempDir(), f1TS.URL, Config{})
	waitConverged(t, leader, f2, "m")

	feed := openSSE(t, f1TS, fmt.Sprintf("/v1/sessions/m/subscribe?from=%d", f1.session("m").snap.Load().seq))
	waitFor(t, "the subscriber on f1", func() bool { return f1.subscribers.Load() == 1 })
	waitFor(t, "f2's live stream from f1", func() bool {
		return metricValue(t, scrapeMetrics(t, f1TS), "replication_slots") == "1"
	})

	var upd UpdateResponse
	mustOK(t, leaderTS, "POST", "/v1/sessions/m/changes", ChangesRequest{Adds: []string{"edge(n2, n3)"}}, &upd)
	waitConverged(t, leader, f2, "m")
	frame, ok := feed.next(t)
	if !ok || frame.Seq != upd.Seq || len(frame.Adds) != 1 || frame.Adds[0] != "edge(n2, n3)" || len(frame.Dels) != 0 {
		t.Fatalf("f1 subscriber frame = %+v (ok=%v), want seq %d adds [edge(n2, n3)]", frame, ok, upd.Seq)
	}
}

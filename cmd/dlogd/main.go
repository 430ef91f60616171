// Command dlogd is a long-running Datalog service. It hosts named
// sessions — each a loaded program with a materialized IDB, evaluated
// as written or under a plan chosen from the paper's rewrite space at
// load time — and serves one versioned REST surface:
//
//	POST   /v1/sessions/{name}            {"program": "...", "plan": "auto"}
//	POST   /v1/sessions/{name}/query      {"goal": "anc(ann, Y)", "limit": 100}
//	POST   /v1/sessions/{name}/changes    {"adds": ["par(x, y)"], "dels": ["par(u, v)"]}
//	GET    /v1/sessions/{name}/subscribe  change feed (SSE or long-poll), ?from=SEQ
//	GET    /v1/sessions/{name}/stats      session counters
//	POST   /v1/sessions/{name}/checkpoint force a checkpoint (needs -data-dir)
//	GET    /v1/sessions/{name}/replicate  WAL-shipping replication stream, ?from=SEQ
//	GET    /v1/sessions                   list sessions
//	DELETE /v1/sessions/{name}            drop a session
//	GET    /v1/stats                      server counters
//	GET    /metrics                       Prometheus exposition
//	GET    /healthz                       liveness
//	GET    /readyz                        readiness (follower: catching_up until caught up)
//
// With -follow http://leader:port the daemon runs as a read-only
// replica: sessions are discovered from the leader, bootstrapped from
// its checkpoints, and fed committed WAL batches into -data-dir; every
// write answers 403 not_leader naming the leader. Restarting the same
// data directory without -follow promotes the replica to a leader.
//
// Every request is answered with an X-Request-Id header; with tracing
// enabled (-trace/-events) the same ID appears on the request's serve
// span and on the committer's serve.commit span, linking a client
// reply to the WAL batch that made it durable. Request access lines
// (and slow queries beyond -slow-query) are logged as JSON lines to
// stderr.
//
// Queries are served lock-free against an immutable copy-on-write
// snapshot of the session's database, and every reply names the
// sequence number of the snapshot it was served from. Writes flow
// through a per-session group-committed pipeline: concurrent changes
// are coalesced to their net effect and maintained with ONE incremental
// fixpoint per batch instead of one per request. On SIGINT or SIGTERM
// the daemon stops accepting connections, lets in-flight requests
// finish (bounded by -drain), and exits.
//
// Usage:
//
//	dlogd -addr :8080 -program family.dl -program fast=opt.dl -plan auto
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], sig, os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "dlogd:", err)
		os.Exit(1)
	}
}

// run is main with its environment made explicit so the e2e test can
// drive it: args are the command-line arguments, sig delivers shutdown
// signals, logw receives log lines, and ready (when non-nil) is sent
// the bound listen address once the server accepts connections.
func run(args []string, sig <-chan os.Signal, logw io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("dlogd", flag.ContinueOnError)
	fs.SetOutput(logw)
	addr := fs.String("addr", ":8080", "listen address")
	type programArg struct{ session, path string }
	var programs []programArg
	fs.Func("program", "program file to load at startup, NAME=PATH, or PATH for the session named \"default\"; repeatable (the service starts empty without it)",
		func(v string) error {
			session := "default"
			path := v
			if name, p, ok := strings.Cut(v, "="); ok {
				session, path = name, p
			}
			if path == "" {
				return errors.New("empty program path")
			}
			programs = append(programs, programArg{session: session, path: path})
			return nil
		})
	plan := fs.String("plan", "", "plan selection for sessions whose load names none: auto (cost-based), orig, iso, opt, magic, bounded (empty = evaluate each program as written)")
	replanEvery := fs.Int("replan-every", 0,
		"committed batches between adaptive re-planning checks on plan=auto sessions (0 disables)")
	small := fs.String("small", "", "comma-separated small predicates for atom introduction")
	maxQueries := fs.Int("max-concurrent-queries", serve.DefaultMaxConcurrentQueries,
		"in-flight query admission limit; excess requests get 503")
	maxPendingWrites := fs.Int("max-pending-writes", serve.DefaultMaxPendingWrites,
		"per-session commit-queue depth; writes beyond it get 503")
	maxBatch := fs.Int("max-batch", serve.DefaultMaxBatch,
		"most write requests one maintenance pass may group-commit (1 disables grouping)")
	queryCache := fs.Int("query-cache", serve.DefaultQueryCacheEntries,
		"per-session query-result cache entries (negative disables)")
	slowQuery := fs.Duration("slow-query", 0,
		"log queries at least this slow as slow_query JSON lines (0 disables)")
	accessLog := fs.Bool("access-log", false,
		"log one JSON line per request (required for -slow-query lines to appear)")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown timeout for in-flight requests")
	dataDir := fs.String("data-dir", "", "durability root: sessions are write-ahead logged and checkpointed here, and recovered from it at startup (empty = fully in-memory)")
	fsync := fs.Bool("fsync", true, "fsync the write-ahead log before acknowledging each write (only meaningful with -data-dir; false trades crash-durability of the latest writes for throughput)")
	checkpointEvery := fs.Int("checkpoint-every", durable.DefaultCheckpointEvery,
		"committed batches between automatic snapshot checkpoints (only meaningful with -data-dir)")
	follow := fs.String("follow", "",
		"leader base URL (http://host:port): run as a read-only replica of that dlogd, replicating its sessions into -data-dir (required); restart without -follow to promote")
	readyMaxLag := fs.Uint64("ready-max-lag", 0,
		"batch-sequence lag at or under which a follower reports ready on /readyz (0 = fully caught up)")
	heartbeat := fs.Duration("replication-heartbeat", serve.DefaultHeartbeat,
		"leader's idle replication-stream heartbeat interval")
	maxSubscribers := fs.Int("max-subscribers", serve.DefaultMaxSubscribers,
		"server-wide open change-feed subscription limit; excess requests get 429")
	obsFlags := obs.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *follow != "" {
		if len(programs) > 0 {
			return errors.New("-follow and -program are mutually exclusive: a replica takes its sessions from the leader")
		}
		if *dataDir == "" {
			return errors.New("-follow requires -data-dir: a replica persists the leader's WAL locally")
		}
	}
	tracer, err := obsFlags.Tracer()
	if err != nil {
		return err
	}

	cfg := serve.Config{
		MaxConcurrentQueries: *maxQueries,
		MaxPendingWrites:     *maxPendingWrites,
		MaxBatch:             *maxBatch,
		QueryCache:           *queryCache,
		Tracer:               tracer,
		SlowQuery:            *slowQuery,
		Follow:               *follow,
		ReadyMaxLag:          *readyMaxLag,
		Heartbeat:            *heartbeat,
		MaxSubscribers:       *maxSubscribers,
		Plan:                 *plan,
		ReplanEvery:          *replanEvery,
	}
	if *accessLog || *slowQuery > 0 {
		cfg.AccessLog = logw
	}
	if *dataDir != "" {
		cfg.Durability = &durable.Options{
			Dir:             *dataDir,
			Fsync:           *fsync,
			CheckpointEvery: *checkpointEvery,
		}
	}
	srv := serve.New(cfg)
	defer srv.Close()

	// Recover persisted sessions before anything else touches the
	// registry: the checkpoint + replayed WAL tail is the authoritative
	// state, including every acknowledged write since the last
	// checkpoint.
	recovered := map[string]bool{}
	if *dataDir != "" {
		reports, err := srv.RecoverSessions(context.Background())
		if err != nil {
			return fmt.Errorf("recover %s: %w", *dataDir, err)
		}
		for _, rep := range reports {
			if rep.Err != "" {
				fmt.Fprintf(logw, "dlogd: session %s NOT recovered: %s\n", rep.Session, rep.Err)
				continue
			}
			recovered[rep.Session] = true
			fmt.Fprintf(logw, "dlogd: recovered session %s at seq %d (%d batches replayed: %d incremental, %d recomputed%s)\n",
				rep.Session, rep.Seq, rep.ReplayedBatches, rep.ReplayedIncr, rep.ReplayedRecomp,
				map[bool]string{true: ", torn tail truncated"}[rep.TornTail])
		}
	}

	var smallPreds []string
	for _, p := range strings.Split(*small, ",") {
		if p != "" {
			smallPreds = append(smallPreds, p)
		}
	}
	for _, pa := range programs {
		if recovered[pa.session] {
			// The durable state already contains this session's program
			// plus every acknowledged write; reloading the file would
			// silently discard those writes.
			fmt.Fprintf(logw, "dlogd: session %s recovered from %s; skipping -program %s\n",
				pa.session, *dataDir, pa.path)
			continue
		}
		src, err := os.ReadFile(pa.path)
		if err != nil {
			return err
		}
		resp, err := srv.LoadSession(context.Background(), pa.session, serve.LoadRequest{
			Program:    string(src),
			SmallPreds: smallPreds,
		})
		if err != nil {
			return fmt.Errorf("load %s into session %s: %w", pa.path, pa.session, err)
		}
		planNote := ""
		if resp.Plan != nil {
			planNote = fmt.Sprintf(", plan=%s", resp.Plan.Chosen)
		}
		fmt.Fprintf(logw, "dlogd: loaded %s into session %s: %d rules, %d EDB tuples, %d IDB tuples (optimized=%v%s)\n",
			pa.path, pa.session, resp.Rules, resp.EDBTuples, resp.IDBTuples, resp.Optimized, planNote)
	}

	// Follower mode: start the replication manager after recovery, so
	// each session resumes its stream from the recovered sequence.
	followCtx, stopFollow := context.WithCancel(context.Background())
	defer stopFollow()
	if *follow != "" {
		if err := srv.StartFollower(followCtx); err != nil {
			return err
		}
		fmt.Fprintf(logw, "dlogd: following %s (read-only replica; ready-max-lag %d)\n", *follow, *readyMaxLag)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	fmt.Fprintf(logw, "dlogd: listening on %s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case err := <-errc:
		return err
	case s := <-sig:
		fmt.Fprintf(logw, "dlogd: %v: draining (up to %s)\n", s, *drain)
	}
	// Stop accepting new connections and wait for in-flight requests.
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return obsFlags.Finish(logw, tracer)
}

package serve

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/durable"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/planner"
	"repro/internal/storage"
)

// One way to install a session. A session's state is its compiled
// program, a database at that program's fixpoint, the rank certificate
// of that fixpoint and the program's frozen IDB seed facts. A state
// comes from one of two constructors and reaches the session through
// one installer:
//
//   - evaluate runs a fixpoint over extensional facts. A load evaluates
//     the facts it parsed; applyDelta's rebuild rung, an adopted re-plan
//     and a checkpoint without ranks evaluate a copy of an existing EDB
//     (edbOf).
//   - restore turns a decoded checkpoint into a state, for crash
//     recovery and for a follower's bootstrap alike.
//   - install swaps a state in under mu. reset is install for a state
//     that does not continue the session's history (a load, a recovery,
//     a bootstrap): it also moves the sequence and detaches the feeds.
//
// Whatever a state needs to be served — ranks for the sweep — is
// therefore set up in one place, whichever way the session got it. A
// planned session's cost model needs nothing set up: its statistics are
// the relations and their column indexes.

// state is one complete session state, assembled off to the side and
// swapped in by install.
type state struct {
	prog    *loadedProgram
	db      *storage.Database
	zs      *eval.ZState
	seedIDB map[string]*storage.Relation
	// stats is the work of the fixpoint that built db: zero for a
	// restored checkpoint, whose fixpoint ran elsewhere.
	stats eval.Stats
}

// engine builds an evaluation engine for p's program over db, honoring
// the server's tracer configuration. A planned session's engine prices
// its EDB atoms from the relations' column indexes, the statistics the
// planner read, for body ordering and the per-rule GJ-vs-binary choice.
func (s *Server) engine(p *loadedProgram, db *storage.Database) *eval.Engine {
	e := eval.New(p.active, db)
	e.SetTracer(s.cfg.Tracer)
	if p.planned() {
		e.SetCostModel(eval.StatsCostModel{DB: db})
	}
	return e
}

// evaluate runs p's program to fixpoint over db — extensional facts
// plus the seed facts seedIDB freezes — recording the ranks the sweep
// needs. db becomes the returned state's database. It touches no
// session, so a failed evaluation leaves whatever is serving untouched.
func (s *Server) evaluate(ctx context.Context, p *loadedProgram, db *storage.Database, seedIDB map[string]*storage.Relation) (*state, error) {
	zs := eval.NewZState()
	eng := s.engine(p, db)
	eng.SetRankSink(zs.Record)
	if err := eng.RunContext(ctx); err != nil {
		return nil, err
	}
	return &state{prog: p, db: db, zs: zs, seedIDB: seedIDB, stats: eng.Stats()}, nil
}

// edbOf copies db's extensional relations — every relation none of the
// derived sets names — and the frozen seed facts into a fresh database
// for evaluate.
func edbOf(db *storage.Database, seedIDB map[string]*storage.Relation, derived ...map[string]bool) *storage.Database {
	fresh := storage.NewDatabase()
	for _, pred := range db.Preds() {
		if slices.ContainsFunc(derived, func(idb map[string]bool) bool { return idb[pred] }) {
			continue
		}
		fresh.Replace(db.Relation(pred).Clone())
	}
	for _, rel := range seedIDB {
		fresh.Replace(rel.Clone())
	}
	return fresh
}

// restore turns a decoded checkpoint into a state. The checkpointed
// active program is re-parsed (programFromMeta), so a restart never
// re-runs the optimizer. The decoded relations already carry their
// ranks; a checkpoint written without them is evaluated from its EDB
// instead, which yields the same fixpoint with fresh ranks.
func (s *Server) restore(ctx context.Context, snap *durable.Snapshot) (*state, error) {
	p, err := programFromMeta(snap.Meta)
	if err != nil {
		return nil, err
	}
	// Generations must keep increasing across a restart, and a follower
	// must stay above everything its leader published, or a
	// generation-keyed cache entry could alias another snapshot.
	storage.BumpGeneration(snap.Meta.Generation)
	if !snap.Meta.HasRanks {
		st, err := s.evaluate(ctx, p, edbOf(snap.DB, snap.Seed, p.idb), snap.Seed)
		if err != nil {
			return nil, fmt.Errorf("rebuild ranks: %w", err)
		}
		return st, nil
	}
	return &state{prog: p, db: snap.DB, zs: eval.RanksOf(snap.DB), seedIDB: snap.Seed}, nil
}

// programFromMeta rebuilds a session's compiled program from a
// checkpoint header. The active (possibly optimized) rules were stored
// in parseable source form, so recovery never re-runs the optimization
// pipeline — the paper's load-time transformation is paid once per
// load, not once per restart.
func programFromMeta(meta durable.Meta) (*loadedProgram, error) {
	parsed, err := parser.Parse(meta.Active)
	if err != nil {
		return nil, fmt.Errorf("parse checkpointed program: %w", err)
	}
	active := parsed.Program
	active.EnsureLabels()
	lp := &loadedProgram{
		active:     active,
		idb:        active.IDBPreds(),
		rules:      meta.Rules,
		ics:        meta.ICs,
		optimized:  meta.Optimized,
		smallPreds: meta.SmallPreds,
		plan:       meta.Plan,
		variant:    planner.Variant(meta.PlanChosen),
	}
	if meta.Goal != "" {
		g, err := parser.ParseAtom(meta.Goal)
		if err != nil {
			return nil, fmt.Errorf("parse checkpointed goal: %w", err)
		}
		lp.goal = &g
	}
	return lp, nil
}

// install makes st the session's state: the maintenance that follows
// resumes from its fixpoint, and its fixpoint cost becomes the
// incumbent's measurement for adaptive re-planning. Caller holds mu and
// publishes once the state is what readers should see.
func (sess *session) install(st *state) {
	sess.prog.Store(st.prog)
	sess.db, sess.zs, sess.seedIDB = st.db, st.zs, st.seedIDB
	sess.dirty = false
	sess.fixpointCost.Store(st.stats.Probes + st.stats.IndexProbes)
	sess.cache.purge()
}

// reset installs st as a state that does not continue the session's
// history, at sequence seq: a load, a recovery, a bootstrap. No delta
// bridges the old state to the new one, so every replication stream and
// change feed is detached: a follower reconnects, finds the new
// checkpoint ahead of its cursor and re-bootstraps; a subscriber
// reconnects and learns its cursor was truncated. Caller holds mu.
func (sess *session) reset(st *state, seq uint64) {
	sess.install(st)
	sess.seq.Store(seq)
	sess.sinceReplan = 0
	sess.closeFeeds()
}

// sessionFor returns the named session, registering an empty shell for
// a state to be installed into when there is none. It fails once the
// server is closed.
func (s *Server) sessionFor(name string) (*session, error) {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	if s.closed {
		return nil, errSessionClosed
	}
	sess := s.sessions[name]
	if sess == nil {
		sess = newSession(s, name)
		s.sessions[name] = sess
	}
	return sess, nil
}

// openStore opens the session's durable store unless it is open: on a
// session's first durable load or first bootstrap. Caller holds mu.
func (sess *session) openStore() error {
	if sess.dur != nil {
		return nil
	}
	st, err := durable.Open(sess.srv.durOpts, sess.name)
	if err != nil {
		return err
	}
	sess.dur = st
	return nil
}

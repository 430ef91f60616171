package main

import (
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/ast"
	"repro/internal/durable"
	"repro/internal/eval"
	"repro/internal/magic"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/planner"
	"repro/internal/replicate"
	"repro/internal/semopt"
	"repro/internal/serve"
	"repro/internal/storage"
)

// The layer replay re-runs a workload's script inside this process: for
// every request it calls each module's exported functions in the order
// internal/serve calls them, and records one span per call. There is no
// HTTP, no routing, no admission gate and no queue, so the difference
// between a request's latency against dlogd and its replayed time is
// what the service layer itself adds (serve.overhead_us).
//
// serve's own glue (the query matcher, the result cache, the commit
// bookkeeping) is unexported, so the replay carries a plain
// re-statement of each; the spans named serve.* cover those.
//
// Spans recorded with tracer.shadow are measurements taken beside the
// request path — a layer called on its own, on a private copy of the
// data — for the per-layer metrics no request isolates.

// replaySession mirrors what serve keeps per session.
type replaySession struct {
	name   string
	source string
	plan   string
	active *ast.Program
	idb    map[string]bool
	db     *storage.Database
	zs     *eval.ZState
	store  *durable.Store
	seq    uint64
	since  int               // batches since the last checkpoint
	snap   *storage.Database // published snapshot
	cache  *resultCache
	shadow *storage.Database // private copy for shadow measurements
}

// layerReplay is one replay run and the counts it gathers.
type layerReplay struct {
	t        *tracer
	ctx      context.Context
	opts     durable.Options
	sessions map[string]*replaySession

	// Exact counts, summed over the run.
	fixpoints      int64
	fixStats       eval.Stats
	sweeps         int64
	sweepStats     eval.Stats
	sweepRefused   int64
	sweepDelta     int64
	walBytes       int64
	walFacts       int64
	parsedBytes    int64
	insertedFacts  int64
	commitTerms    int64 // terms interned on commit paths
	snapBytes      int64
	snapTuples     int64
	candidates     int64
	plans          int64
	residues       int64
	semopts        int64
	regret         []float64
	tracerOverhead []float64
	heapBytes      float64 // heap growth of the shadow copies ...
	heapTuples     float64 // ... and the tuples they hold
	scanMBps       []float64
	failures       []string
}

func (lr *layerReplay) failf(format string, args ...any) {
	if len(lr.failures) < 10 {
		lr.failures = append(lr.failures, fmt.Sprintf(format, args...))
	}
}

// runReplay replays sc (set-up loads, then every op) under dir and
// returns the recorded spans with the gathered counts.
func runReplay(sc *script, dir string) (*layerReplay, error) {
	lr := &layerReplay{
		t:        newTracer(),
		ctx:      context.Background(),
		opts:     durable.Options{Dir: dir, Fsync: true, CheckpointEvery: sc.ckptEvery}.Norm(),
		sessions: map[string]*replaySession{},
	}
	for i := range sc.setup {
		lr.t.op = -(i + 1) // set-up ops get negative ids
		if err := lr.load(&sc.setup[i]); err != nil {
			return nil, err
		}
	}
	for _, s := range lr.sessions {
		lr.makeShadow(s)
	}
	for i := range sc.ops {
		lr.t.op = i + 1
		o := &sc.ops[i]
		var err error
		switch o.kind {
		case opLoad:
			err = lr.load(o)
		case opDrop:
			err = lr.drop(o)
		case opQuery:
			err = lr.query(o, i)
		case opChange:
			err = lr.change(o, i)
		}
		if err != nil {
			return nil, fmt.Errorf("replay op %d (%s %s): %w", i, o.kind, o.session, err)
		}
	}
	lr.t.op = len(sc.ops) + 1
	for i := range sc.resident {
		if err := lr.load(&sc.resident[i]); err != nil {
			return nil, err
		}
	}
	if err := lr.epilogue(); err != nil {
		return nil, err
	}
	return lr, nil
}

// --- load -----------------------------------------------------------------

func (lr *layerReplay) load(o *op) error {
	t := lr.t
	req := o.load
	root := t.begin("serve.load")
	after, err := lr.loadPath(o, req)
	t.end(root)
	if err == nil && after != nil {
		after() // shadow measurements, outside the request's span
	}
	return err
}

// loadPath is the request path of a load; the returned function, when
// non-nil, runs the shadow measurements that go with it.
func (lr *layerReplay) loadPath(o *op, req *loadReq) (func(), error) {
	t := lr.t
	var parsed *parser.Result
	var err error
	t.do("parser.parse_program", func() { parsed, err = parser.Parse(req.Program) })
	if err != nil {
		return nil, err
	}
	lr.parsedBytes += int64(len(req.Program))
	db := storage.NewDatabase()
	var rules []ast.Rule
	t.do("storage.insert_facts", func() {
		for _, r := range parsed.Program.Rules {
			if r.IsFact() {
				db.AddFact(r.Head)
				lr.insertedFacts++
			} else {
				rules = append(rules, r)
			}
		}
	})
	prog := &ast.Program{Rules: rules}
	prog.EnsureLabels()

	sess := lr.sessions[o.session]
	if sess == nil {
		sess = &replaySession{name: o.session, cache: newResultCache(serve.DefaultQueryCacheEntries)}
		lr.sessions[o.session] = sess
	}
	sess.source, sess.plan = req.Program, req.Plan
	active := prog
	var decision *planner.Decision
	if req.Plan != "" {
		popts := planner.Options{ICs: parsed.ICs}
		if req.Goal != "" {
			g, err := parser.ParseAtom(req.Goal)
			if err != nil {
				return nil, err
			}
			popts.Goal = &g
		}
		t.do("planner.plan", func() { decision, err = planner.Plan(prog, db, popts) })
		if err != nil {
			return nil, err
		}
		active = decision.Program()
		lr.plans++
		for _, c := range decision.Candidates {
			if c.Program != nil {
				lr.candidates++
			}
		}
	}
	sess.active, sess.idb = active, active.IDBPreds()
	edb := db.TotalTuples()

	zs := eval.NewZState()
	var st eval.Stats
	t.do("eval.fixpoint", func() {
		eng := eval.New(active, db)
		if sess.plan != "" {
			eng.SetCostModel(eval.StatsCostModel{DB: db})
		}
		eng.SetRankSink(zs.Record)
		err = eng.RunContext(lr.ctx)
		st = eng.Stats()
	})
	if err != nil {
		return nil, err
	}
	lr.fixpoints++
	lr.fixStats.Add(st)
	if o.want >= 0 && db.TotalTuples()-edb != o.want {
		lr.failf("replay load %s: idb_tuples %d, model says %d", o.session, db.TotalTuples()-edb, o.want)
	}
	sess.db, sess.zs = db, zs
	sess.seq++
	if err := lr.checkpoint(sess); err != nil {
		return nil, err
	}
	sess.cache.purge()
	t.do("storage.snapshot", func() { sess.snap = db.Snapshot() })

	// Beside the path: the optimizer and the magic rewrite on their own
	// (planner.Plan calls both inside its one span), and the planner's
	// regret measured by running every candidate.
	if decision != nil && o.primary {
		return func() { lr.shadowPlanner(prog, parsed.ICs, req.Goal, db, decision) }, nil
	}
	return nil, nil
}

// checkpoint persists the session's state the way serve does on load
// and every CheckpointEvery commits: encode, then atomic write.
func (lr *layerReplay) checkpoint(sess *replaySession) error {
	t := lr.t
	id := t.begin("durable.checkpoint")
	defer t.end(id)
	if sess.store == nil {
		st, err := durable.Open(lr.opts, sess.name)
		if err != nil {
			return err
		}
		sess.store = st
	}
	snap := &durable.Snapshot{
		Meta: durable.Meta{
			Session: sess.name, Seq: sess.seq, Program: sess.source,
			Active: sess.active.String(), Plan: sess.plan, HasRanks: true,
		},
		DB:    sess.db,
		Seed:  map[string]*storage.Relation{},
		Ranks: map[string][]durable.RankedTuple{},
	}
	for p, rts := range sess.zs.Export() {
		conv := make([]durable.RankedTuple, len(rts))
		for i, rt := range rts {
			conv[i] = durable.RankedTuple{T: rt.T, Rank: rt.Rank}
		}
		snap.Ranks[p] = conv
	}
	var raw []byte
	var err error
	t.do("durable.encode_snapshot", func() { raw, err = durable.EncodeSnapshot(snap) })
	if err != nil {
		return err
	}
	t.do("durable.write_snapshot", func() { err = sess.store.CheckpointRaw(raw, sess.seq) })
	if err != nil {
		return err
	}
	lr.snapBytes += int64(len(raw))
	lr.snapTuples += int64(sess.db.TotalTuples())
	sess.since = 0
	return nil
}

func (lr *layerReplay) drop(o *op) error {
	sess := lr.sessions[o.session]
	if sess == nil {
		return fmt.Errorf("drop of unknown session %s", o.session)
	}
	var err error
	root := lr.t.begin("serve.drop")
	lr.t.do("durable.destroy", func() { err = sess.store.Destroy() })
	lr.t.end(root)
	delete(lr.sessions, o.session)
	return err
}

// shadowPlanner times the optimizer and the magic rewrite alone, and
// measures the planner's regret: the fixpoint wall time of the plan it
// chose over that of the fastest candidate, each the median of three
// runs on a private copy of the EDB.
func (lr *layerReplay) shadowPlanner(prog *ast.Program, ics []ast.IC, goal string, db *storage.Database, d *planner.Decision) {
	if len(ics) > 0 {
		lr.t.shadow("semopt.optimize", func() {
			if res, err := semopt.Optimize(prog, ics, semopt.Options{}); err == nil {
				lr.residues += int64(len(res.Opportunities))
			}
		})
		lr.semopts++
	}
	if goal != "" {
		if g, err := parser.ParseAtom(goal); err == nil {
			lr.t.shadow("magic.rewrite", func() { magic.Rewrite(prog, g) }) //nolint:errcheck // timed, not used
		}
	}
	if len(lr.regret) >= 7*regretRounds {
		return
	}
	edb := edbOf(db, d.Program().IDBPreds())
	timeOf := func(p *ast.Program) float64 {
		var runs []float64
		for i := 0; i < 3; i++ {
			c := edb.Clone()
			start := time.Now()
			if err := eval.New(p, c).RunContext(lr.ctx); err != nil {
				return 0
			}
			runs = append(runs, time.Since(start).Seconds())
		}
		return median(runs)
	}
	best, chosen := 0.0, 0.0
	for _, c := range d.Candidates {
		if c.Program == nil {
			continue
		}
		tt := timeOf(c.Program)
		if tt > 0 && (best == 0 || tt < best) {
			best = tt
		}
		if c.Variant == d.Chosen {
			chosen = tt
		}
	}
	if best > 0 && chosen > 0 {
		lr.regret = append(lr.regret, chosen/best)
	}
}

// regretRounds is how many load cycles contribute regret measurements
// (each costs three fixpoints per candidate per scenario).
const regretRounds = 2

// edbOf copies the extensional relations of db: everything the program
// does not derive.
func edbOf(db *storage.Database, idb map[string]bool) *storage.Database {
	out := storage.NewDatabase()
	for _, p := range db.Preds() {
		if !idb[p] {
			out.Replace(db.Relation(p).Clone())
		}
	}
	return out
}

// --- change ---------------------------------------------------------------

type replayFact struct {
	pred  string
	tuple storage.Tuple
}

func (lr *layerReplay) change(o *op, idx int) error {
	t := lr.t
	sess := lr.sessions[o.session]
	if sess == nil {
		return fmt.Errorf("change on unknown session %s", o.session)
	}
	root := t.begin("serve.commit")
	batch, err := lr.commitPath(sess, o, idx)
	t.end(root)
	if err == nil && idx%shadowEvery == 0 {
		lr.shadowCommit(sess, batch)
	}
	return err
}

// commitPath is the request path of one commit.
func (lr *layerReplay) commitPath(sess *replaySession, o *op, idx int) (*durable.Batch, error) {
	t := lr.t
	// Parse both sides (serve parses each entry with a trailing period).
	var heads [2][]ast.Atom
	var err error
	t.do("parser.parse_facts", func() {
		for side, entries := range [2][]string{o.adds, o.dels} {
			for _, e := range entries {
				var res *parser.Result
				if res, err = parser.Parse(e + "."); err != nil {
					return
				}
				lr.parsedBytes += int64(len(e) + 1)
				for _, r := range res.Program.Rules {
					heads[side] = append(heads[side], r.Head)
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	var facts [2][]replayFact
	t.do("storage.intern", func() {
		for side := range heads {
			for _, h := range heads[side] {
				facts[side] = append(facts[side], replayFact{h.Pred, storage.TupleOfTerms(h.Args)})
				lr.commitTerms += int64(len(h.Args))
			}
		}
	})
	// Keep only effective changes, as the committer does.
	ins := map[string][]storage.Tuple{}
	del := map[string][]storage.Tuple{}
	applied := 0
	t.do("serve.validate", func() {
		for _, f := range facts[0] {
			if rel := sess.db.Relation(f.pred); rel == nil || !rel.Contains(f.tuple) {
				ins[f.pred] = append(ins[f.pred], f.tuple)
				applied++
			}
		}
		for _, f := range facts[1] {
			if rel := sess.db.Relation(f.pred); rel != nil && rel.Contains(f.tuple) {
				del[f.pred] = append(del[f.pred], f.tuple)
				applied++
			}
		}
	})
	if applied != o.want {
		lr.failf("replay change %d: applied %d, script says %d", idx, applied, o.want)
	}
	changes := make(map[string]*storage.ZSet, len(ins)+len(del))
	for p, ts := range ins {
		changes[p] = storage.ZSetOfChanges(ts, nil)
	}
	for p, ts := range del {
		if z := changes[p]; z != nil {
			for _, tu := range ts {
				z.Add(tu, -1)
			}
		} else {
			changes[p] = storage.ZSetOfChanges(nil, ts)
		}
	}

	var delta map[string]*storage.ZSet
	t.do("eval.sweep", func() {
		eng := eval.New(sess.active, sess.db)
		if sess.plan != "" {
			eng.SetCostModel(eval.StatsCostModel{DB: sess.db})
		}
		delta, err = eng.ApplyZSetContext(lr.ctx, sess.zs, changes)
		lr.sweepStats.Add(eng.Stats())
	})
	lr.sweeps++
	switch {
	case err == nil:
		for _, z := range delta {
			lr.sweepDelta += int64(z.Len())
		}
	case errors.Is(err, eval.ErrNeedsRecompute):
		// The negation guard refused before touching anything: apply the
		// EDB delta directly and rebuild the IDB from the EDB.
		lr.sweepRefused++
		if err := lr.recompute(sess, ins, del); err != nil {
			return nil, err
		}
	default:
		return nil, err
	}

	sess.seq++
	batch := &durable.Batch{Seq: sess.seq, Ins: ins, Del: del}
	t.do("durable.append", func() {
		var n int64
		var syncDur time.Duration
		n, syncDur, err = sess.store.Append(batch)
		t.child("durable.fsync", syncDur)
		lr.walBytes += n
		lr.walFacts += int64(applied)
	})
	if err != nil {
		return nil, err
	}
	sess.since++
	// Fan-out to the one change-feed subscriber: render and encode the
	// frame (the socket write is the service's, not a layer's).
	t.do("serve.encode_frame", func() {
		f := serve.DeltaFrame{Seq: batch.Seq, Adds: renderFacts(ins), Dels: renderFacts(del)}
		_, err = json.Marshal(f)
	})
	if err != nil {
		return nil, err
	}
	sess.cache.purge()
	t.do("storage.snapshot", func() { sess.snap = sess.db.Snapshot() })
	if sess.since >= lr.opts.CheckpointEvery {
		if err := lr.checkpoint(sess); err != nil {
			return nil, err
		}
	}
	return batch, nil
}

// shadowEvery spaces the shadow measurements taken beside commits and
// queries, so they add little to the replay's own run time.
const shadowEvery = 16

func renderFacts(m map[string][]storage.Tuple) []string {
	preds := make([]string, 0, len(m))
	for p := range m {
		preds = append(preds, p)
	}
	sort.Strings(preds)
	out := []string{}
	for _, p := range preds {
		for _, tu := range m[p] {
			out = append(out, p+tu.String())
		}
	}
	return out
}

// recompute is serve's fallback: a fresh database seeded with the
// current EDB, evaluated to fixpoint, replaces the session database.
func (lr *layerReplay) recompute(sess *replaySession, ins, del map[string][]storage.Tuple) error {
	t := lr.t
	var fresh *storage.Database
	t.do("storage.apply_and_clone_edb", func() {
		for p, ts := range ins {
			rel := sess.db.Ensure(p, len(ts[0]))
			for _, tu := range ts {
				rel.Insert(tu)
			}
		}
		for p, ts := range del {
			if rel := sess.db.Relation(p); rel != nil {
				for _, tu := range ts {
					rel.Remove(tu)
				}
			}
		}
		fresh = edbOf(sess.db, sess.idb)
	})
	zs := eval.NewZState()
	var err error
	var st eval.Stats
	t.do("eval.fixpoint", func() {
		eng := eval.New(sess.active, fresh)
		eng.SetRankSink(zs.Record)
		err = eng.RunContext(lr.ctx)
		st = eng.Stats()
	})
	if err != nil {
		return err
	}
	lr.fixpoints++
	lr.fixStats.Add(st)
	sess.db, sess.zs = fresh, zs
	return nil
}

// shadowCommit times, beside the path, the steps a commit shares with
// other layers: WAL record encoding alone, the replication stream's
// batch encode and decode over an in-memory pipe, and — on the private
// copy — what a write pays right after a snapshot was taken (the
// copy-on-write detach) and what a sorted index pays to catch up with
// a four-tuple append.
func (lr *layerReplay) shadowCommit(sess *replaySession, b *durable.Batch) {
	t := lr.t
	t.shadow("durable.encode_batch", func() { durable.EncodeBatch(b) })
	var pipe bytes.Buffer
	w := replicate.NewWriter(&pipe, nil)
	if err := w.Hello(&replicate.Hello{Session: sess.name, Seq: b.Seq - 1}); err != nil {
		return
	}
	t.shadow("replicate.encode_batch", func() { w.Batch(b) }) //nolint:errcheck // in-memory write
	dec := replicate.NewDecoder(&pipe, b.Seq-1)
	if _, err := dec.Next(); err != nil { // the hello
		return
	}
	t.shadow("replicate.decode_batch", func() { dec.Next() }) //nolint:errcheck // timed

	if sh := sess.shadow; sh != nil {
		rel := sh.Relation("tc")
		if rel == nil || rel.Arity != 2 || rel.Len() == 0 {
			return
		}
		extra := make([]storage.Tuple, 4)
		for i := range extra {
			extra[i] = storage.TupleOfTerms([]ast.Term{ast.Sym(fmt.Sprintf("zz%d", i)), ast.Sym("zz")})
		}
		_ = sh.Snapshot()
		t.shadow("storage.snapshot_detach", func() { rel.Insert(extra[0]) })
		rel.EnsureSorted([]int{0, 1})
		for _, tu := range extra[1:] {
			rel.Insert(tu)
		}
		t.shadow("storage.sorted_catchup", func() { rel.EnsureSorted([]int{0, 1}) })
		for _, tu := range extra {
			rel.Remove(tu)
		}
	}
}

// --- query ----------------------------------------------------------------

// resultCache restates serve's per-session result cache: LRU over goal
// strings, emptied by every commit.
type resultCache struct {
	cap   int
	order *list.List // front = most recent; values are *cacheEntry
	byKey map[string]*list.Element
}

type cacheEntry struct {
	key  string
	rows [][]string
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{cap: capacity, order: list.New(), byKey: map[string]*list.Element{}}
}

func (c *resultCache) get(key string) ([][]string, bool) {
	if el, ok := c.byKey[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*cacheEntry).rows, true
	}
	return nil, false
}

func (c *resultCache) put(key string, rows [][]string) {
	if el, ok := c.byKey[key]; ok {
		el.Value.(*cacheEntry).rows = rows
		c.order.MoveToFront(el)
		return
	}
	c.byKey[key] = c.order.PushFront(&cacheEntry{key, rows})
	if c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.byKey, last.Value.(*cacheEntry).key)
	}
}

func (c *resultCache) purge() {
	c.order.Init()
	c.byKey = map[string]*list.Element{}
}

func (lr *layerReplay) query(o *op, idx int) error {
	t := lr.t
	sess := lr.sessions[o.session]
	if sess == nil {
		return fmt.Errorf("query on unknown session %s", o.session)
	}
	root := t.begin("serve.query")
	goal, err := lr.queryPath(sess, o, idx)
	t.end(root)
	if err != nil {
		return err
	}
	if idx%shadowEvery == 0 && sess.shadow != nil {
		// The engine's own query path (column index built on demand) and
		// a bare indexed lookup, on the private copy.
		eng := eval.New(sess.active, sess.shadow)
		t.shadow("eval.query", func() { eng.Query(goal) }) //nolint:errcheck // timed
		if rel := sess.shadow.Relation(goal.Pred); rel != nil {
			for col, arg := range goal.Args {
				if v, ok := storage.LookupTerm(arg); ok && !isVar(arg) {
					rel.EnsureIndex(col)
					t.shadow("storage.lookup_indexed", func() { rel.Lookup(col, v) })
					break
				}
			}
		}
	}
	return nil
}

// queryPath is the request path of one query.
func (lr *layerReplay) queryPath(sess *replaySession, o *op, idx int) (ast.Atom, error) {
	t := lr.t
	var goal ast.Atom
	var err error
	t.do("parser.parse_goal", func() { goal, err = parser.ParseAtom(o.goal) })
	if err != nil {
		return goal, err
	}
	key := goal.String()
	var rows [][]string
	var hit bool
	t.do("serve.cache_get", func() { rows, hit = sess.cache.get(key) })
	if !hit {
		var tuples []storage.Tuple
		t.do("storage.lookup", func() { tuples = matchSnapshot(sess.snap, goal) })
		t.do("serve.render_rows", func() {
			rows = make([][]string, 0, len(tuples))
			for _, tu := range tuples {
				row := make([]string, len(tu))
				for i, term := range tu {
					row[i] = term.String()
				}
				rows = append(rows, row)
			}
		})
		if len(rows) <= serve.MaxQueryLimit {
			sess.cache.put(key, rows)
		}
	}
	if len(rows) != o.want {
		lr.failf("replay query %d %s: total %d, model says %d", idx, o.goal, len(rows), o.want)
	}
	t.do("serve.encode_reply", func() {
		page := rows
		if len(page) > serve.DefaultQueryLimit {
			page = page[:serve.DefaultQueryLimit]
		}
		_, err = json.Marshal(serve.QueryResponse{
			Goal: key, Count: len(page), Total: len(rows), Tuples: page,
			Generation: sess.snap.Generation(), Cached: hit, Seq: sess.seq,
		})
	})
	return goal, err
}

func isVar(t ast.Term) bool {
	_, ok := t.(ast.Var)
	return ok
}

// matchSnapshot restates serve's read path: lower the goal to values,
// use a column index only if one already exists, else scan.
func matchSnapshot(db *storage.Database, goal ast.Atom) []storage.Tuple {
	rel := db.Relation(goal.Pred)
	if rel == nil || rel.Arity != len(goal.Args) {
		return nil
	}
	type colSpec struct {
		c    storage.Value
		peer int
	}
	specs := make([]colSpec, len(goal.Args))
	firstOf := map[ast.Var]int{}
	for i, arg := range goal.Args {
		specs[i] = colSpec{peer: -1}
		if v, ok := arg.(ast.Var); ok {
			if j, seen := firstOf[v]; seen {
				specs[i].peer = j
			} else {
				firstOf[v] = i
			}
			continue
		}
		val, ok := storage.LookupTerm(arg)
		if !ok {
			return nil
		}
		specs[i].c = val
	}
	var out []storage.Tuple
	match := func(tu storage.Tuple) {
		for i, sp := range specs {
			if sp.c != storage.NoValue && tu[i] != sp.c {
				return
			}
			if sp.peer >= 0 && tu[i] != tu[sp.peer] {
				return
			}
		}
		out = append(out, tu)
	}
	for i, sp := range specs {
		if sp.c == storage.NoValue {
			continue
		}
		if positions, ok := rel.LookupNoBuild(i, sp.c); ok {
			for _, pos := range positions {
				match(rel.At(pos))
			}
			return out
		}
	}
	for _, tu := range rel.Tuples() {
		match(tu)
	}
	return out
}

// --- shadow set-up and epilogue --------------------------------------------

// makeShadow gives the session a private deep copy for the shadow
// measurements, and measures on the way what a tuple costs in heap and
// what the first index builds cost.
func (lr *layerReplay) makeShadow(sess *replaySession) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sess.shadow = sess.db.Clone()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if n := sess.shadow.TotalTuples(); n > 0 && after.HeapAlloc > before.HeapAlloc {
		lr.heapBytes += float64(after.HeapAlloc - before.HeapAlloc)
		lr.heapTuples += float64(n)
	}
	// Largest relation: cold hash-index build, then cold sorted-index build.
	var big *storage.Relation
	for _, p := range sess.shadow.Preds() {
		if rel := sess.shadow.Relation(p); big == nil || rel.Len() > big.Len() {
			big = rel
		}
	}
	if big != nil && big.Arity > 0 {
		lr.t.shadow("storage.index_build", func() { big.EnsureIndex(0) })
		perm := make([]int, big.Arity)
		for i := range perm {
			perm[i] = i
		}
		lr.t.shadow("storage.sorted_build", func() { big.EnsureSorted(perm) })
	}
}

// epilogue measures the recovery-side layers on the state the replay
// left on disk: what a restart decodes, scans and replays, and what a
// follower bootstrap ships.
func (lr *layerReplay) epilogue() error {
	t := lr.t
	names := make([]string, 0, len(lr.sessions))
	for n := range lr.sessions {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		sess := lr.sessions[n]
		if sess.store == nil {
			continue
		}
		if sess.shadow == nil {
			lr.makeShadow(sess) // cold_load's sessions: loaded after set-up, by the script's resident ops
		}
		raw, seq, err := sess.store.NewestSnapshotRaw()
		if err != nil {
			return err
		}
		sdir := sess.store.Dir()
		if err := sess.store.Close(); err != nil {
			return err
		}
		sess.store = nil

		t.shadow("durable.decode_snapshot", func() { durable.DecodeSnapshot(raw) }) //nolint:errcheck // timed
		// WAL segments: scan each one's bytes.
		entries, err := os.ReadDir(sdir)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !strings.HasSuffix(e.Name(), durable.WALSuffix) {
				continue
			}
			b, err := os.ReadFile(filepath.Join(sdir, e.Name()))
			if err != nil {
				return err
			}
			if len(b) < 4096 {
				continue // an almost empty segment says nothing about scan speed
			}
			d := t.shadow("durable.scan_segment", func() { durable.ScanSegment(b) }) //nolint:errcheck // timed
			lr.scanMBps = append(lr.scanMBps, float64(len(b))/1e6/d.Seconds())
		}
		t.shadow("durable.recover", func() {
			st, err := durable.Open(lr.opts, n)
			if err != nil {
				return
			}
			st.Recover() //nolint:errcheck // timed
			st.Close()   //nolint:errcheck
		})
		// A follower bootstrap: hello + snapshot over an in-memory pipe,
		// decoded on the other side.
		t.shadow("replicate.snapshot_ship", func() {
			var pipe bytes.Buffer
			w := replicate.NewWriter(&pipe, nil)
			if w.Hello(&replicate.Hello{Session: n, Seq: seq, Snapshot: true, SnapshotSeq: seq}) != nil || w.Snapshot(raw) != nil {
				return
			}
			dec := replicate.NewDecoder(&pipe, 0)
			for {
				msg, err := dec.Next()
				if err != nil {
					return
				}
				if msg.Kind == replicate.KindSnapshot {
					durable.DecodeSnapshot(msg.Snapshot) //nolint:errcheck // timed
					return
				}
			}
		})
	}
	// The whole restart as serve does it: every session under the data
	// root, checkpoint decode plus WAL replay through the sweep.
	opts := lr.opts
	srv := serve.New(serve.Config{Durability: &opts})
	t.shadow("serve.recover_sessions", func() { srv.RecoverSessions(lr.ctx) }) //nolint:errcheck // timed
	srv.Close()

	// The engine's own tracer: the same fixpoint with and without one,
	// once per session.
	for _, n := range names {
		sess := lr.sessions[n]
		edb := edbOf(sess.db, sess.idb)
		run := func(tr *obs.Tracer) float64 {
			c := edb.Clone()
			eng := eval.New(sess.active, c)
			eng.SetTracer(tr)
			start := time.Now()
			eng.RunContext(lr.ctx) //nolint:errcheck // timed
			return time.Since(start).Seconds()
		}
		var off, on []float64
		for i := 0; i < 3; i++ {
			off = append(off, run(nil))
			on = append(on, run(obs.New()))
		}
		if m := median(off); m > 0 {
			lr.tracerOverhead = append(lr.tracerOverhead, median(on)/m-1)
		}
	}
	return nil
}

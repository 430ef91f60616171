package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/storage"
	"repro/internal/workload"
)

// A script is everything one workload run sends to dlogd, in order,
// with the answer the model expects for each request. It is a pure
// function of (workload, seed, scale): the same arguments give a
// byte-identical script, so every run of one seed does identical work
// and every count repeats exactly.
type script struct {
	workload string
	// ckptEvery is the workload's -checkpoint-every (0 = dlogd's default).
	ckptEvery int
	setup     []op // session loads issued during set-up
	ops       []op // warm-up ops, then measured ops
	warm      int  // ops[:warm] are warm-up and land in setup_s
	// subscribeTo names the session whose change feed the SSE
	// subscriber follows during ops ("" on read-only workloads).
	subscribeTo string
	// resident ops run once after the measured phase, untimed, so the
	// verification queries have state to check (cold_load re-loads its
	// seven sessions; the others need nothing).
	resident []op
	// verify queries run after the measured phase, after every
	// recovery and on every follower; each carries the model's total
	// and, where set, the order-independent digest of all rows.
	verify []op
	// tailBatches is the number of WAL batches past the newest
	// checkpoint when the measured phase ends and the process is
	// killed — fixed by the script, so every recovery replays the same
	// tail.
	tailBatches int
	// recoverCycles and followerCycles say how many kill/restart cycles
	// and follower bootstraps a traced run makes after the measured
	// phase; 0 where recover_s / follower_ready_s is not this workload's
	// to report.
	recoverCycles, followerCycles int
}

// Repetitions of the one-shot timings; each reports the median.
const (
	recoverCycles  = 5
	followerCycles = 3
)

type opKind uint8

const (
	opLoad opKind = iota
	opDrop
	opQuery
	opChange
)

func (k opKind) String() string {
	return [...]string{"load", "drop", "query", "change"}[k]
}

// op is one request and its expected answer.
type op struct {
	kind    opKind
	session string
	body    []byte // JSON request body; nil for opDrop
	// want is the model's answer: idb_tuples for a load (-1 = not
	// comparable, e.g. a magic plan materializes helper predicates),
	// total for a query, applied for a change.
	want int
	// digest, when hasDigest, is the order-independent hash of every
	// row the query must return (all pages).
	digest    uint64
	hasDigest bool
	// fresh marks a read-your-write query issued right after a commit:
	// timed as fresh_read_p50_ms, not counted in op_*. staleWant is the
	// model's answer before that commit: a reply that gives exactly it
	// read the pre-commit snapshot (counted in stale_reads); any other
	// wrong total is a failed op.
	fresh     bool
	staleWant int
	// primary marks the requests the op_* metrics and ops_per_s count.
	primary bool
	// cont marks a primary request whose op continues with the next
	// request: cold_load's op is a whole cycle of seven loads and seven
	// drops, timed as the sum of its fourteen requests.
	cont bool
	// adds/dels/goal keep the request's parts for the layer replay,
	// which calls the modules directly instead of going through JSON.
	adds, dels []string
	goal       string
	load       *loadReq
}

type loadReq struct {
	Program string `json:"program"`
	Plan    string `json:"plan,omitempty"`
	Goal    string `json:"goal,omitempty"`
}

type queryReq struct {
	Goal   string `json:"goal"`
	Limit  int    `json:"limit,omitempty"`
	Cursor string `json:"cursor,omitempty"`
}

type changesReq struct {
	Adds []string `json:"adds,omitempty"`
	Dels []string `json:"dels,omitempty"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs of strings reach here
	}
	return b
}

func loadOp(session string, req loadReq, wantIDB int) op {
	r := req
	return op{kind: opLoad, session: session, body: mustJSON(req), want: wantIDB, load: &r}
}

func queryOp(session, goal string, wantTotal int) op {
	return op{kind: opQuery, session: session, body: mustJSON(queryReq{Goal: goal}), want: wantTotal, goal: goal}
}

// totalOp is a query that checks only the total: it asks for a
// one-row page, so the reply stays small however many rows match.
func totalOp(session, goal string, wantTotal int) op {
	return op{kind: opQuery, session: session, body: mustJSON(queryReq{Goal: goal, Limit: 1}), want: wantTotal, goal: goal}
}

// digestOp is a verification query: every page is fetched and the
// rows' count and order-independent digest must match the model.
func digestOp(session, goal string, wantTotal int, digest uint64) op {
	o := queryOp(session, goal, wantTotal)
	o.digest, o.hasDigest = digest, true
	return o
}

func changeOp(session string, adds, dels []string) op {
	return op{
		kind: opChange, session: session,
		body: mustJSON(changesReq{Adds: adds, Dels: dels}),
		want: len(adds) + len(dels),
		adds: adds, dels: dels,
	}
}

// bytes serializes the script for the determinism test: every request
// in order with its expectation.
func (s *script) bytes() []byte {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s ckpt=%d warm=%d tail=%d sub=%s recover=%d follow=%d\n",
		s.workload, s.ckptEvery, s.warm, s.tailBatches, s.subscribeTo, s.recoverCycles, s.followerCycles)
	for _, part := range []struct {
		name string
		ops  []op
	}{{"setup", s.setup}, {"ops", s.ops}, {"resident", s.resident}, {"verify", s.verify}} {
		for _, o := range part.ops {
			fmt.Fprintf(&sb, "%s %s %s %s want=%d digest=%x fresh=%v stale=%d primary=%v cont=%v\n",
				part.name, o.kind, o.session, o.body, o.want, o.digest, o.fresh, o.staleWant, o.primary, o.cont)
		}
	}
	return []byte(sb.String())
}

// scaled turns a count calibrated for the default run length into the
// count for this run: --seconds scales the work, never a timer.
func scaled(base int, seconds int) int {
	n := base * seconds / defaultSeconds
	if n < 1 {
		n = 1
	}
	return n
}

// rowDigest is the order-independent digest of a set of rows: the sum
// (mod 2^64) of each row's FNV-1a hash.
func rowDigest(rows [][]string) uint64 {
	var sum uint64
	for _, r := range rows {
		sum += rowHash(r)
	}
	return sum
}

func rowHash(row []string) uint64 {
	h := fnv.New64a()
	for _, c := range row {
		h.Write([]byte(c)) //nolint:errcheck // hash.Hash never fails
		h.Write([]byte{0}) //nolint:errcheck
	}
	return h.Sum64()
}

// ---------------------------------------------------------------------
// Layered DAGs and the reachability model
// ---------------------------------------------------------------------

// dag is a layered directed acyclic graph: node i sits in layer
// i/width and every edge goes from one layer to the next. Its shape is
// fixed by (layers, width, offsets); the seed only permutes the node
// labels and draws the order of operations, so the IDB size — and with
// it the cost of every request — is the same for every seed.
type dag struct {
	width, layers int
	out           [][]int // adjacency lists, in insertion order
	label         []string
}

func newDAG(rng *rand.Rand, layers, width int) *dag {
	n := layers * width
	g := &dag{width: width, layers: layers, out: make([][]int, n), label: make([]string, n)}
	for i, p := range rng.Perm(n) {
		g.label[i] = fmt.Sprintf("n%d", p)
	}
	return g
}

func (g *dag) n() int { return len(g.out) }

// edgeTo returns the node `offset` columns to the right in the next
// layer, or -1 from the last layer.
func (g *dag) edgeTo(from, offset int) int {
	l, i := from/g.width, from%g.width
	if l+1 >= g.layers {
		return -1
	}
	return (l+1)*g.width + (i+offset)%g.width
}

func (g *dag) has(a, b int) bool {
	for _, x := range g.out[a] {
		if x == b {
			return true
		}
	}
	return false
}

func (g *dag) add(a, b int) {
	if !g.has(a, b) {
		g.out[a] = append(g.out[a], b)
	}
}

func (g *dag) remove(a, b int) {
	for k, x := range g.out[a] {
		if x == b {
			g.out[a] = append(g.out[a][:k], g.out[a][k+1:]...)
			return
		}
	}
}

func (g *dag) edgeFact(a, b int) string {
	return "edge(" + g.label[a] + ", " + g.label[b] + ")"
}

// reach is the model of `tc`: the nodes reachable from a by one or
// more edges, by plain breadth-first search — no code shared with the
// engine under test.
func (g *dag) reach(a int, seen []bool) []int {
	for i := range seen {
		seen[i] = false
	}
	var out []int
	queue := []int{a}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, y := range g.out[x] {
			if !seen[y] {
				seen[y] = true
				out = append(out, y)
				queue = append(queue, y)
			}
		}
	}
	return out
}

// closure returns the model's reach sets for every node.
func (g *dag) closure() [][]int {
	seen := make([]bool, g.n())
	all := make([][]int, g.n())
	for a := range all {
		all[a] = g.reach(a, seen)
	}
	return all
}

// tcDigest returns the count and digest of the whole tc relation.
func (g *dag) tcDigest() (int, uint64) {
	var sum uint64
	total := 0
	for a, rs := range g.closure() {
		for _, b := range rs {
			sum += rowHash([]string{g.label[a], g.label[b]})
			total++
		}
	}
	return total, sum
}

const tcRules = "tc(X, Y) :- edge(X, Y).\ntc(X, Y) :- tc(X, Z), edge(Z, Y).\n"

func (g *dag) edgeFacts() string {
	var sb strings.Builder
	for a, outs := range g.out {
		for _, b := range outs {
			sb.WriteString(g.edgeFact(a, b))
			sb.WriteString(".\n")
		}
	}
	return sb.String()
}

// ---------------------------------------------------------------------
// read_point
// ---------------------------------------------------------------------

// Sizes of read_point at the default run length: a 41-layer, width-20
// DAG whose closure holds 258 380 tuples, and 42 000 measured queries
// (22 to 28 seconds of them on the box the benchmark was built on,
// depending on the hour).
const (
	readLayers     = 41
	readWidth      = 20
	readHotGoals   = 512
	readHotShare   = 70 // percent of queries drawn from the hot set
	readOpsDefault = 42000
	// readVerifyGoals is how many sampled goals re-check the session
	// after each restart and on each follower.
	readVerifyGoals = 32
)

var readOffsets = []int{0, 1, 2}

func genReadPoint(seed int64, seconds int) *script {
	rng := rand.New(rand.NewSource(seed))
	g := newDAG(rng, readLayers, readWidth)
	for a := 0; a < g.n(); a++ {
		for _, o := range readOffsets {
			if b := g.edgeTo(a, o); b >= 0 {
				g.add(a, b)
			}
		}
	}
	cl := g.closure()
	into := make([]int, g.n()) // |{x : tc(x, b)}|
	member := make([]map[int]bool, g.n())
	for a, rs := range cl {
		member[a] = make(map[int]bool, len(rs))
		for _, b := range rs {
			into[b]++
			member[a][b] = true
		}
	}
	idb := 0
	for _, rs := range cl {
		idb += len(rs)
	}

	const session = "graph"
	s := &script{workload: "read_point"}
	s.setup = []op{loadOp(session, loadReq{Program: tcRules + g.edgeFacts()}, idb)}

	// goal draws one query of the three shapes over random constants.
	goal := func() op {
		a, b := rng.Intn(g.n()), rng.Intn(g.n())
		switch rng.Intn(3) {
		case 0:
			return queryOp(session, "tc("+g.label[a]+", Y)", len(cl[a]))
		case 1:
			return queryOp(session, "tc(X, "+g.label[b]+")", into[b])
		default:
			want := 0
			if member[a][b] {
				want = 1
			}
			return queryOp(session, "tc("+g.label[a]+", "+g.label[b]+")", want)
		}
	}
	hot := make([]op, readHotGoals)
	for i := range hot {
		hot[i] = goal()
	}
	measured := scaled(readOpsDefault, seconds)
	s.warm = measured / 9 // 10 % of the whole script
	for i := 0; i < s.warm+measured; i++ {
		var o op
		if rng.Intn(100) < readHotShare {
			o = hot[rng.Intn(len(hot))]
		} else {
			o = goal()
		}
		o.primary = true
		s.ops = append(s.ops, o)
	}

	// Paging a quarter of a million rows after every restart would cost
	// more than the restart; the goal→total table is the check here.
	s.verify = []op{totalOp(session, "tc(X, Y)", idb)}
	for i := 0; i < readVerifyGoals; i++ {
		s.verify = append(s.verify, goal())
	}
	return s
}

// ---------------------------------------------------------------------
// write_sweep and write_negation
// ---------------------------------------------------------------------

// writeParams sizes one write workload.
type writeParams struct {
	name          string
	layers, width int
	baseOffsets   []int // edges never touched by the writer
	poolOffsets   []int // candidate edges the writer toggles
	negation      bool
	ckptEvery     int // -checkpoint-every
	tail          int // batches past the last checkpoint at kill time
	opsDefault    int // measured commits at the default run length
	factsPerOp    int // half adds, half dels
	freshEvery    int // one fresh read after every n-th commit
	followers     int // follower bootstraps after the last recovery
}

var sweepParams = writeParams{
	name: "write_sweep", layers: 10, width: 20,
	baseOffsets: []int{0}, poolOffsets: []int{1, 3},
	ckptEvery: 256, tail: 250, opsDefault: 6600, factsPerOp: 4, freshEvery: 10,
	followers: followerCycles,
}

var negationParams = writeParams{
	name: "write_negation", layers: 6, width: 20,
	baseOffsets: []int{0}, poolOffsets: []int{1, 3},
	negation:  true,
	ckptEvery: 256, tail: 100, opsDefault: 2600, factsPerOp: 4, freshEvery: 10,
}

const negationRules = "unreach(X, Y) :- node(X), node(Y), not tc(X, Y).\n"

func genWrite(p writeParams, seed int64, seconds int) *script {
	rng := rand.New(rand.NewSource(seed))
	g := newDAG(rng, p.layers, p.width)
	type edge struct{ a, b int }
	var pool []edge
	for a := 0; a < g.n(); a++ {
		for _, o := range p.baseOffsets {
			if b := g.edgeTo(a, o); b >= 0 {
				g.add(a, b)
			}
		}
		for _, o := range p.poolOffsets {
			if b := g.edgeTo(a, o); b >= 0 {
				pool = append(pool, edge{a, b})
			}
		}
	}
	// The writer owns the pool: half of it starts present. present and
	// absent partition the pool at all times, so an add always names an
	// absent edge and a del a present one — every fact is effective and
	// none can sit on both sides of one request.
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	present := append([]edge(nil), pool[:len(pool)/2]...)
	absent := append([]edge(nil), pool[len(pool)/2:]...)
	for _, e := range present {
		g.add(e.a, e.b)
	}

	const session = "graph"
	s := &script{
		workload:       p.name,
		ckptEvery:      p.ckptEvery,
		subscribeTo:    session,
		tailBatches:    p.tail,
		recoverCycles:  recoverCycles,
		followerCycles: p.followers,
	}
	var prog strings.Builder
	prog.WriteString(tcRules)
	if p.negation {
		prog.WriteString(negationRules)
		for i := 0; i < g.n(); i++ {
			fmt.Fprintf(&prog, "node(%s).\n", g.label[i])
		}
	}
	prog.WriteString(g.edgeFacts())
	tc0, _ := g.tcDigest()
	idb0 := tc0
	if p.negation {
		idb0 = g.n() * g.n() // tc and unreach partition node × node
	}
	s.setup = []op{loadOp(session, loadReq{Program: prog.String()}, idb0)}

	// Total commits are 10 % warm-up plus the measured share, rounded
	// so that the last commit lands exactly p.tail batches after a
	// checkpoint (the load itself checkpoints, so commit k is batch k).
	measured := scaled(p.opsDefault, seconds)
	total := measured + measured/9
	total = (total/p.ckptEvery)*p.ckptEvery + p.tail
	warmCommits := total / 10
	seen := make([]bool, g.n())
	half := p.factsPerOp / 2
	// draw removes `half` random edges from a set and returns them.
	draw := func(set *[]edge) []edge {
		s := *set
		for j := 0; j < half; j++ {
			i, last := rng.Intn(len(s)-j), len(s)-1-j
			s[i], s[last] = s[last], s[i]
		}
		out := append([]edge(nil), s[len(s)-half:]...)
		*set = s[:len(s)-half]
		return out
	}
	for k := 1; k <= total; k++ {
		// Draw both sides from the state before the request, apply after.
		addE, delE := draw(&absent), draw(&present)
		touched := addE[0].a
		isFresh := k%p.freshEvery == 0
		before := 0
		if isFresh {
			before = len(g.reach(touched, seen))
		}
		var adds, dels []string
		for j := 0; j < half; j++ {
			adds = append(adds, g.edgeFact(addE[j].a, addE[j].b))
			dels = append(dels, g.edgeFact(delE[j].a, delE[j].b))
			g.add(addE[j].a, addE[j].b)
			g.remove(delE[j].a, delE[j].b)
		}
		present = append(present, addE...)
		absent = append(absent, delE...)

		c := changeOp(session, adds, dels)
		c.primary = true
		s.ops = append(s.ops, c)
		if isFresh {
			q := queryOp(session, "tc("+g.label[touched]+", Y)", len(g.reach(touched, seen)))
			q.fresh, q.staleWant = true, before
			s.ops = append(s.ops, q)
		}
		if k == warmCommits {
			s.warm = len(s.ops) // warm counts ops, fresh reads included
		}
	}

	tcN, tcD := g.tcDigest()
	s.verify = []op{digestOp(session, "tc(X, Y)", tcN, tcD)}
	if p.negation {
		member := make(map[[2]int]bool, tcN)
		for a, rs := range g.closure() {
			for _, b := range rs {
				member[[2]int{a, b}] = true
			}
		}
		var sum uint64
		un := 0
		for a := 0; a < g.n(); a++ {
			for b := 0; b < g.n(); b++ {
				if !member[[2]int{a, b}] {
					sum += rowHash([]string{g.label[a], g.label[b]})
					un++
				}
			}
		}
		s.verify = append(s.verify, digestOp(session, "unreach(X, Y)", un, sum))
	}
	return s
}

// ---------------------------------------------------------------------
// cold_load
// ---------------------------------------------------------------------

// coldCyclesDefault is the number of measured ops — cycles of seven
// loads and seven drops — at the default run length.
const coldCyclesDefault = 210

// coldScenario is one of the seven programs cold_load loads.
type coldScenario struct {
	name  string
	src   string // program text: rules, ICs, facts
	goal  string // bound goal sent with the load ("" = none)
	query string // the scenario's representative query
	// Parsed form, for the model and the layer replay.
	prog *ast.Program
	ics  []ast.IC
	db   *storage.Database
}

const triangleRules = "tri(X, Y, Z) :- edge(X, Y), edge(Y, Z), edge(Z, X).\n"

// coldScenarios builds the seven scenarios from the seed. Sizes are
// fixed; the seed drives the generators' random attribute draws.
func coldScenarios(seed int64) []coldScenario {
	rng := rand.New(rand.NewSource(seed))
	text := func(sc workload.Scenario, db *storage.Database) string {
		var sb strings.Builder
		sb.WriteString(sc.Program.String())
		for _, ic := range sc.ICs {
			sb.WriteString(ic.String())
			sb.WriteByte('\n')
		}
		sb.WriteString(db.String())
		return sb.String()
	}
	routes := workload.Routes()
	org := workload.Organization()
	acad := workload.Academic()
	gen := workload.Genealogy()
	tri, err := parser.Parse(triangleRules)
	if err != nil {
		panic(err) // constant program text
	}
	triSc := workload.Scenario{Name: "triangle", Program: tri.Program, Query: ast.NewAtom("tri", ast.Var("X"), ast.Var("Y"), ast.Var("Z"))}

	mk := func(name string, sc workload.Scenario, db *storage.Database, goal string) coldScenario {
		q := sc.Query.String()
		if goal != "" {
			q = goal
		}
		return coldScenario{name: name, src: text(sc, db), goal: goal, query: q, prog: sc.Program, ics: sc.ICs, db: db}
	}
	return []coldScenario{
		mk("organization", org, workload.OrgDB(rng, 2, 8, 2, 0.5), ""),
		mk("academic", acad, workload.AcademicDB(rng, 24, 8, 720, 6, 0.3), ""),
		mk("genealogy", gen, workload.GenealogyDB(rng, 100, 12), ""),
		mk("routes_selective", routes, workload.RoutesDB(rng, 8, 30, 8), ""),
		mk("routes_vacuous", routes, workload.RoutesDB(rng, 12, 40, 0), ""),
		mk("routes_goal", routes, workload.RoutesDB(rng, 24, 60, 0), "reach(c0_0, Y)"),
		mk("triangle", triSc, workload.RandomGraphDB(rng, 600, 8000), ""),
	}
}

func genColdLoad(seed int64, seconds int) (*script, error) {
	scs := coldScenarios(seed)
	s := &script{workload: "cold_load"}
	// One op is one cycle: load all seven, then drop all seven.
	var cycle []op
	for i, sc := range scs {
		m, err := modelScenario(sc)
		if err != nil {
			return nil, fmt.Errorf("model %s: %w", sc.name, err)
		}
		want := m.idb
		if sc.goal != "" {
			want = -1 // a goal-scoped plan materializes only the goal's cone
		}
		session := fmt.Sprintf("s%d_%s", i, sc.name)
		l := loadOp(session, loadReq{Program: sc.src, Plan: "auto", Goal: sc.goal}, want)
		s.resident = append(s.resident, l)
		s.verify = append(s.verify, digestOp(session, sc.query, m.answers, m.digest))
		l.primary, l.cont = true, true
		cycle = append(cycle, l)
	}
	for i := range scs {
		cycle = append(cycle, op{kind: opDrop, session: cycle[i].session, primary: true, cont: i < len(scs)-1})
	}
	cycles := scaled(coldCyclesDefault, seconds)
	warm := (cycles + 8) / 9
	for c := 0; c < warm+cycles; c++ {
		if c == warm {
			s.warm = len(s.ops)
		}
		s.ops = append(s.ops, cycle...)
	}
	return s, nil
}

// genScript builds the named workload's script.
func genScript(name string, seed int64, seconds int) (*script, error) {
	switch name {
	case "cold_load":
		return genColdLoad(seed, seconds)
	case "read_point":
		return genReadPoint(seed, seconds), nil
	case "write_sweep":
		return genWrite(sweepParams, seed, seconds), nil
	case "write_negation":
		return genWrite(negationParams, seed, seconds), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

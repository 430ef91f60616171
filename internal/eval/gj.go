package eval

import (
	"sort"

	"repro/internal/storage"
)

// JoinMode overrides the join execution path for rule bodies; see
// SetJoinMode.
type JoinMode int

const (
	// JoinAuto (the default) picks per rule: Generic Join for cyclic
	// body hypergraphs, the binary pipeline otherwise.
	JoinAuto JoinMode = iota
	// JoinBinary forces the binary index-nested-loop pipeline.
	JoinBinary
	// JoinGJ forces Generic Join wherever it is compilable; unsupported
	// shapes fall back to binary.
	JoinGJ
)

// attachGJ decides one compiled plan's join path, attaching a Generic
// Join program when the body is cyclic and, under a cost model, GJ's
// estimate beats the binary plan's. The binary ops always stay
// compiled: they are the fallback.
func (e *Engine) attachGJ(c *compiled) {
	if e.joinMode == JoinBinary {
		e.stats.BinaryPlanned++
		return
	}
	if e.joinMode == JoinAuto && !gjCyclic(c) {
		e.stats.BinaryPlanned++
		return
	}
	if e.joinMode == JoinAuto && e.cost != nil && !e.gjPaysOff(c) {
		e.stats.BinaryPlanned++
		return
	}
	if g, ok := compileGJ(c); ok {
		c.gj = g
		e.stats.GJPlanned++
		return
	}
	e.stats.BinaryPlanned++
}

// This file implements the Generic Join execution path: a worst-case-
// optimal multiway join that evaluates a rule body by eliminating one
// variable at a time with leapfrog-style sorted intersections, instead
// of the binary index-nested-loop pipeline in exec.go. For a body whose
// hypergraph is cyclic (the triangle e(X,Y), e(Y,Z), e(Z,X) is the
// canonical case) the binary pipeline materializes an intermediate
// whose size can exceed the AGM bound of the output; Generic Join's
// runtime is bounded by the AGM fractional-cover bound of the body
// (Ngo-Porat-Ré-Rudra), and applied to every semi-naive round of a
// recursive rule it gives the recursive-AGM guarantees (e.g. transitive
// closure in O(|E|^1/2 · |OUT|)).
//
// Compilation reuses the slot-compiled binary program (compileGJ reads
// c.ops, not the AST): scans become leapfrog atoms probing columnar
// sorted indexes (storage.SortedIndex), comparisons and negated
// membership checks attach to the earliest variable level that binds
// their slots, and the delta occurrence of a semi-naive variant stays a
// linear outer scan — so Inserted counts and set semantics are
// identical to the binary path by construction. Plans the compiler
// cannot express (bodies with equality-bind steps) simply keep gj ==
// nil and run binary.
//
// The planner decision lives in Engine.attachGJ: it attaches only when
// the body hypergraph fails the GYO ear-removal acyclicity test —
// acyclic bodies have an optimal binary order (Yannakakis), so leapfrog
// overhead would buy nothing. Tests override it with SetJoinMode.

// gjSrc is the value source for one probe column: a constant or a
// frame slot.
type gjSrc struct {
	slot int           // valid when >= 0
	c    storage.Value // valid when slot < 0
}

func (s gjSrc) value(fr frame) storage.Value {
	if s.slot >= 0 {
		return fr[s.slot]
	}
	return s.c
}

// gjAtom is one leapfrog participant: a stored relation probed through
// a sorted index whose column permutation is [constant columns,
// delta-prebound columns, free columns in elimination order].
type gjAtom struct {
	pred string
	rel  *storage.Relation // re-resolved by prepare each round
	perm []int             // all columns of the atom, probe order
	srcs []gjSrc           // aligned with perm; free columns have slot >= 0
	nPre int               // perm positions [0, nPre) narrowed before recursion
	// levelCols[l] holds the perm positions of the columns bound at
	// elimination level l (usually one; more for repeated variables).
	levelCols [][]int
	idx       *storage.SortedIndex // refreshed by prepare; nil when rel is absent
}

// gjLevel is one variable-elimination step: the slot it binds and the
// atoms whose sorted runs are intersected to enumerate its values.
type gjLevel struct {
	slot  int
	atoms []int // indexes into gjProgram.atoms
}

// gjProgram is a compiled Generic Join body. checks[l+1] holds the
// filter / negated-membership / fully-bound-membership instructions
// that run as soon as level l has bound its slot (index 0 = before the
// first level, after delta seeding).
type gjProgram struct {
	c      *compiled
	delta  *instr // the semi-naive delta occurrence; nil in base plans
	atoms  []*gjAtom
	levels []gjLevel
	checks [][]*instr
}

// compileGJ lowers a slot-compiled plan into a Generic Join program,
// reporting ok=false for shapes the leapfrog executor does not handle
// (equality binds). Negations, comparisons, constants, repeated
// variables and the delta occurrence are all supported.
func compileGJ(c *compiled) (*gjProgram, bool) {
	p := &gjProgram{c: c}
	var scans []*instr
	for i := range c.ops {
		in := &c.ops[i]
		switch in.kind {
		case stepBind:
			return nil, false
		case stepScan:
			if in.useDelta {
				if p.delta != nil {
					return nil, false
				}
				p.delta = in
			} else {
				scans = append(scans, in)
			}
		}
	}
	if len(scans) == 0 {
		return nil, false
	}

	// Slots bound before the leapfrog recursion: those the delta scan
	// binds per seed tuple.
	prebound := make(map[int]bool)
	if p.delta != nil {
		for _, s := range p.delta.binds {
			prebound[s] = true
		}
	}

	// Free slots and their participation counts across scans.
	useCount := make(map[int]int)
	var freeOrder []int
	for _, in := range scans {
		seen := make(map[int]bool)
		for _, a := range in.scanArgs {
			if a.kind == argConst || prebound[a.slot] || seen[a.slot] {
				continue
			}
			seen[a.slot] = true
			if useCount[a.slot] == 0 {
				freeOrder = append(freeOrder, a.slot)
			}
			useCount[a.slot]++
		}
	}
	// Elimination order: most-shared variables first (they drive the
	// tightest intersections), first-seen order breaking ties so the
	// order is deterministic.
	sort.SliceStable(freeOrder, func(i, j int) bool {
		return useCount[freeOrder[i]] > useCount[freeOrder[j]]
	})
	levelOf := make(map[int]int, len(freeOrder))
	for l, s := range freeOrder {
		levelOf[s] = l
		p.levels = append(p.levels, gjLevel{slot: s})
	}
	p.checks = make([][]*instr, len(freeOrder)+1)

	// checkLevel places an instruction at the earliest point all its
	// slots are bound: -1 (before recursion) if none of them is free.
	checkLevel := func(refs ...argRef) int {
		lvl := -1
		for _, r := range refs {
			if r.slot >= 0 && !prebound[r.slot] {
				if l := levelOf[r.slot]; l > lvl {
					lvl = l
				}
			}
		}
		return lvl
	}

	for _, in := range scans {
		hasFree := false
		for _, a := range in.scanArgs {
			if a.kind != argConst && !prebound[a.slot] {
				hasFree = true
			}
		}
		if !hasFree {
			// Every column constant or delta-bound: a membership probe,
			// exactly like the binary path's member scans.
			refs := memberRefs(in.scanArgs)
			probe := &instr{kind: stepScan, pred: in.pred, rel: in.rel, member: true, refs: refs}
			p.checks[checkLevel(refs...)+1] = append(p.checks[checkLevel(refs...)+1], probe)
			continue
		}
		atom := &gjAtom{pred: in.pred, rel: in.rel, levelCols: make([][]int, len(freeOrder))}
		// Column probe order: constants, then delta-prebound slots, then
		// free slots by elimination level.
		add := func(col int, src gjSrc) {
			atom.perm = append(atom.perm, col)
			atom.srcs = append(atom.srcs, src)
		}
		for k, a := range in.scanArgs {
			if a.kind == argConst {
				add(k, gjSrc{slot: -1, c: a.c})
			}
		}
		for k, a := range in.scanArgs {
			if a.kind != argConst && prebound[a.slot] {
				add(k, gjSrc{slot: a.slot})
			}
		}
		atom.nPre = len(atom.perm)
		for _, l := range p.levels {
			for k, a := range in.scanArgs {
				if a.kind != argConst && a.slot == l.slot && !prebound[a.slot] {
					atom.levelCols[levelOf[a.slot]] = append(atom.levelCols[levelOf[a.slot]], len(atom.perm))
					add(k, gjSrc{slot: a.slot})
				}
			}
		}
		p.atoms = append(p.atoms, atom)
	}

	// Wire each level to the atoms that intersect on its slot.
	for ai, atom := range p.atoms {
		for l, cols := range atom.levelCols {
			if len(cols) > 0 {
				p.levels[l].atoms = append(p.levels[l].atoms, ai)
			}
		}
	}
	for _, lv := range p.levels {
		if len(lv.atoms) == 0 {
			// A free slot no scan can enumerate (cannot happen for plans
			// compilePlan accepted, but fail closed).
			return nil, false
		}
	}

	// Filters and negated checks attach to their earliest bound level.
	for i := range c.ops {
		in := &c.ops[i]
		switch in.kind {
		case stepFilter:
			l := checkLevel(in.a, in.b) + 1
			p.checks[l] = append(p.checks[l], in)
		case stepNegCheck:
			l := checkLevel(in.refs...) + 1
			p.checks[l] = append(p.checks[l], in)
		}
	}
	return p, true
}

// prepare re-resolves relations and builds or catches up every sorted
// index the program probes. It mutates relations (EnsureSorted); the
// engine calls it at the start of each firing, so run() only reads.
func (p *gjProgram) prepare(db *storage.Database) {
	for _, a := range p.atoms {
		if a.rel == nil {
			a.rel = db.Relation(a.pred)
		}
		if a.rel == nil {
			a.idx = nil
			continue
		}
		a.idx = a.rel.EnsureSorted(a.perm)
	}
}

// gjPrepare is prepare gated on the plan actually having a GJ program.
func (c *compiled) gjPrepare(db *storage.Database) {
	if c != nil && c.gj != nil {
		c.gj.prepare(db)
	}
}

// gjExec is the run state of one Generic Join firing: the frame, the
// per-atom sorted-index ranges, and per-level save areas so descending
// into a binding can narrow ranges and unwinding can restore them.
type gjExec struct {
	p    *gjProgram
	db   *storage.Database
	st   *Stats
	fr   frame
	emit func(frame) error
	lo   []int
	hi   []int
	// saveLo/saveHi[l] snapshot every atom's range around one binding of
	// level l (descendant levels narrow other atoms' ranges too, so the
	// save covers all atoms, not just the level's own).
	saveLo [][]int
	saveHi [][]int
}

// run executes the program: the delta occurrence (if any) scans
// linearly exactly like the binary path, and each seed runs one
// leapfrog descent over the remaining variables.
func (p *gjProgram) run(db *storage.Database, delta tupleRun, st *Stats, emit func(frame) error) error {
	st.GJFirings++
	x := &gjExec{
		p: p, db: db, st: st, emit: emit,
		fr: make(frame, p.c.nSlots),
		lo: make([]int, len(p.atoms)),
		hi: make([]int, len(p.atoms)),
	}
	x.saveLo = make([][]int, len(p.levels))
	x.saveHi = make([][]int, len(p.levels))
	for l := range p.levels {
		x.saveLo[l] = make([]int, len(p.atoms))
		x.saveHi[l] = make([]int, len(p.atoms))
	}
	if p.delta == nil {
		return x.body()
	}
	in := p.delta
	for pos, n := 0, delta.Len(); pos < n; pos++ {
		t := delta.At(pos)
		x.st.Probes++
		ok := true
		for k := range in.scanArgs {
			a := &in.scanArgs[k]
			switch a.kind {
			case argConst:
				if t[k] != a.c {
					ok = false
				}
			case argCheckSlot:
				if x.fr[a.slot] != t[k] {
					ok = false
				}
			case argBindSlot:
				x.fr[a.slot] = t[k]
			}
			if !ok {
				break
			}
		}
		var err error
		if ok {
			x.st.Matched++
			err = x.body()
		}
		for _, s := range in.binds {
			x.fr[s] = storage.NoValue
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// body runs one leapfrog descent for the current seed bindings:
// initialize every atom's range, narrow the constant/prebound prefix,
// run the level(-1) checks, then eliminate variables in order.
func (x *gjExec) body() error {
	for ai, a := range x.p.atoms {
		if a.idx == nil || a.idx.Len() == 0 {
			return nil
		}
		lo, hi := 0, a.idx.Len()
		for k := 0; k < a.nPre; k++ {
			x.st.Probes++
			x.st.GJSeeks++
			lo, hi = a.idx.Narrow(k, lo, hi, a.srcs[k].value(x.fr))
			if lo == hi {
				return nil
			}
		}
		x.lo[ai], x.hi[ai] = lo, hi
	}
	if ok, err := x.runChecks(0); !ok || err != nil {
		return err
	}
	return x.eliminate(0)
}

// runChecks executes the check list at slot l (l = level+1): filters,
// negated membership, and fully-bound membership probes. It reports
// whether the descent may continue.
func (x *gjExec) runChecks(l int) (bool, error) {
	for _, in := range x.p.checks[l] {
		switch in.kind {
		case stepFilter:
			ok, err := evalFilter(in, x.fr)
			if err != nil || !ok {
				return false, err
			}
		case stepNegCheck:
			if !evalNegCheck(in, x.fr, x.db, x.st) {
				return false, nil
			}
		case stepScan: // fully-bound membership probe
			t := in.probeTuple(x.fr)
			x.st.Probes++
			x.st.IndexProbes++
			rel := in.rel
			if rel == nil {
				rel = x.db.Relation(in.pred)
			}
			if rel == nil || rel.Arity != len(t) || !rel.Contains(t) {
				return false, nil
			}
		}
	}
	return true, nil
}

// eliminate binds the level's slot to each value in the sorted
// intersection of the participating atoms' current ranges, narrowing
// and descending for each.
func (x *gjExec) eliminate(l int) error {
	if l == len(x.p.levels) {
		x.st.Matched++
		return x.emit(x.fr)
	}
	lv := &x.p.levels[l]
	p := x.p
	for {
		// Find the next common value: take the max of the atoms' current
		// heads and seek everyone up to it until they agree (leapfrog).
		v := storage.NoValue
		agreed := true
		for _, ai := range lv.atoms {
			if x.lo[ai] == x.hi[ai] {
				x.fr[lv.slot] = storage.NoValue
				return nil
			}
			a := p.atoms[ai]
			cv := a.idx.Col(a.levelCols[l][0])[x.lo[ai]]
			if v == storage.NoValue {
				v = cv
			} else if cv != v {
				agreed = false
				if cv > v {
					v = cv
				}
			}
		}
		if !agreed {
			for _, ai := range lv.atoms {
				a := p.atoms[ai]
				x.st.Probes++
				x.st.GJSeeks++
				x.lo[ai] = a.idx.SeekGE(a.levelCols[l][0], x.lo[ai], x.hi[ai], v)
			}
			continue
		}
		// All participants start at v: bind, narrow each participant to
		// its v-run (every column of this slot, for repeated variables),
		// check, descend.
		x.fr[lv.slot] = v
		copy(x.saveLo[l], x.lo)
		copy(x.saveHi[l], x.hi)
		alive := true
		for _, ai := range lv.atoms {
			a := p.atoms[ai]
			for _, k := range a.levelCols[l] {
				x.st.Probes++
				x.st.GJSeeks++
				x.lo[ai], x.hi[ai] = a.idx.Narrow(k, x.lo[ai], x.hi[ai], v)
			}
			if x.lo[ai] == x.hi[ai] {
				alive = false
				break
			}
		}
		if alive {
			ok, err := x.runChecks(l + 1)
			if err != nil {
				return err
			}
			if ok {
				if err := x.eliminate(l + 1); err != nil {
					return err
				}
			}
		}
		copy(x.lo, x.saveLo[l])
		copy(x.hi, x.saveHi[l])
		for _, ai := range lv.atoms {
			a := p.atoms[ai]
			x.st.GJSeeks++
			x.lo[ai] = a.idx.SeekGT(a.levelCols[l][0], x.lo[ai], x.hi[ai], v)
		}
	}
}

// gjCyclic reports whether the plan's scan hypergraph (one edge per
// scan, vertices = variable slots) fails the GYO ear-removal test for
// alpha-acyclicity. JoinAuto uses it as the planner heuristic: acyclic
// bodies keep the binary pipeline (a good left-deep order exists),
// cyclic bodies get Generic Join, whose AGM-bounded runtime is exactly
// the worst-case the binary pipeline cannot match.
func gjCyclic(c *compiled) bool {
	var edges []map[int]bool
	for i := range c.ops {
		in := &c.ops[i]
		if in.kind != stepScan {
			continue
		}
		e := make(map[int]bool)
		for _, a := range in.scanArgs {
			if a.kind != argConst {
				e[a.slot] = true
			}
		}
		edges = append(edges, e)
	}
	// GYO reduction: repeatedly drop vertices private to one edge and
	// edges contained in another (empty edges included); the hypergraph
	// is alpha-acyclic iff everything reduces away.
	for changed := true; changed; {
		changed = false
		// Vertex occurrence counts.
		occ := make(map[int]int)
		for _, e := range edges {
			for v := range e {
				occ[v]++
			}
		}
		for _, e := range edges {
			for v := range e {
				if occ[v] == 1 {
					delete(e, v)
					changed = true
				}
			}
		}
		for i := 0; i < len(edges); i++ {
			drop := len(edges[i]) == 0
			for j := 0; !drop && j < len(edges); j++ {
				if i == j {
					continue
				}
				contained := true
				for v := range edges[i] {
					if !edges[j][v] {
						contained = false
						break
					}
				}
				// Contained edges drop; between duplicates, keep the later.
				if contained && (len(edges[i]) < len(edges[j]) || i < j) {
					drop = true
				}
			}
			if drop {
				edges[i] = edges[len(edges)-1]
				edges = edges[:len(edges)-1]
				changed = true
				i--
			}
		}
	}
	return len(edges) > 0
}

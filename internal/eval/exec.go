package eval

import (
	"fmt"

	"repro/internal/storage"
)

// tupleRun is what a delta occurrence ranges over: a flat set built
// during evaluation (*storage.TupleSet) or a few loose tuples
// (*tupleList).
type tupleRun interface {
	Len() int
	At(pos int) storage.Tuple
}

// tupleList adapts loose tuples to tupleRun.
type tupleList []storage.Tuple

func (l *tupleList) Len() int                 { return len(*l) }
func (l *tupleList) At(pos int) storage.Tuple { return (*l)[pos] }

// executor runs a compiled program depth-first over its register frame.
// Each compiled program owns one executor, reused by every firing; the
// frame is reused across all derivations of a firing (backtracking
// resets only the slots each step bound). Executors never mutate
// relations: every write happens in the emit callback the caller
// supplies.
type executor struct {
	c     *compiled
	db    *storage.Database
	delta tupleRun // tuples for the delta occurrence (step 0), if any
	st    *Stats
	fr    frame
	emit  func(frame) error
}

// runCompiled executes c with the given delta tuples, counting work
// into st and calling emit for every complete binding. seed pre-binds
// slots 0..len(seed)-1 (the compiler allocates prebound variables
// first; support checks seed them from a candidate tuple); nil for
// engine plans. Plans carrying a Generic Join program dispatch to the
// leapfrog executor (gj.go) instead of the binary instruction loop. A
// program runs one firing at a time: emit must not run c again.
func (e *Engine) runCompiled(c *compiled, delta tupleRun, seed []storage.Value, st *Stats, emit func(frame) error) error {
	if c.gj != nil {
		return c.gj.run(e.db, delta, st, emit)
	}
	x := &c.exec
	if x.fr == nil {
		x.fr = make(frame, c.nSlots)
	}
	clear(x.fr) // an aborted firing can leave slots bound
	copy(x.fr, seed)
	x.c, x.db, x.delta, x.st, x.emit = c, e.db, delta, st, emit
	err := x.step(0)
	x.delta, x.st, x.emit = nil, nil, nil
	return err
}

func (x *executor) step(i int) error {
	if i == len(x.c.ops) {
		return x.emit(x.fr)
	}
	in := &x.c.ops[i]
	switch in.kind {
	case stepFilter:
		ok, err := evalFilter(in, x.fr)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		return x.step(i + 1)

	case stepBind:
		x.fr[in.slot] = in.a.resolve(x.fr)
		err := x.step(i + 1)
		x.fr[in.slot] = storage.NoValue
		return err

	case stepNegCheck:
		if !evalNegCheck(in, x.fr, x.db, x.st) {
			return nil
		}
		return x.step(i + 1)

	case stepScan:
		if in.useDelta {
			return x.scanTuples(i, in, x.delta)
		}
		rel := in.rel
		if rel == nil {
			// The relation did not exist at compile time (possible only
			// for plans compiled outside a fixpoint, e.g. a support
			// check over a relation nothing has created yet).
			if rel = x.db.Relation(in.pred); rel == nil {
				return nil
			}
			if rel.Arity != len(in.scanArgs) {
				return fmt.Errorf("eval: %s used with arity %d but stored with arity %d",
					in.pred, len(in.scanArgs), rel.Arity)
			}
		}
		if rel.Len() == 0 {
			return nil
		}
		if in.member {
			// Every column is bound: one membership probe replaces the
			// scan.
			x.st.Probes++
			x.st.IndexProbes++
			if !rel.Contains(in.probeTuple(x.fr)) {
				return nil
			}
			x.st.Matched++
			return x.step(i + 1)
		}
		if in.lookupCol >= 0 {
			if positions, ok := rel.LookupNoBuild(in.lookupCol, in.lookupRef.resolve(x.fr)); ok {
				x.st.IndexProbes++
				for _, pos := range positions {
					if err := x.tryTuple(i, in, rel.At(pos)); err != nil {
						return err
					}
				}
				return nil
			}
			// Index not built (plan compiled outside a fixpoint): fall
			// through to the full scan, which applies the same column
			// constraints.
		}
		x.st.FullScans++
		for pos, n := 0, rel.Len(); pos < n; pos++ {
			if err := x.tryTuple(i, in, rel.At(pos)); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("eval: unknown instruction kind %d", in.kind)
}

// scanTuples tries every delta tuple. Like the full scan above, it
// walks the tuples present when the scan began.
func (x *executor) scanTuples(i int, in *instr, run tupleRun) error {
	for pos, n := 0, run.Len(); pos < n; pos++ {
		if err := x.tryTuple(i, in, run.At(pos)); err != nil {
			return err
		}
	}
	return nil
}

// tryTuple matches t against the scan's column constraints, binding the
// scan's slots, and recurses into the rest of the program on a match.
func (x *executor) tryTuple(i int, in *instr, t storage.Tuple) error {
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
		err = x.step(i + 1)
	}
	for _, s := range in.binds {
		x.fr[s] = storage.NoValue
	}
	return err
}

// evalFilter evaluates a compiled comparison instruction under fr,
// negation included. Shared by the binary executor and the Generic
// Join path.
func evalFilter(in *instr, fr frame) (bool, error) {
	ok, err := CompareValues(in.op, in.a.resolve(fr), in.b.resolve(fr))
	if err != nil {
		return false, err
	}
	if in.neg {
		ok = !ok
	}
	return ok, nil
}

// evalNegCheck evaluates a compiled negated-membership instruction
// under fr; it reports whether execution may continue (the tuple is
// absent). Shared by the binary executor and the Generic Join path.
func evalNegCheck(in *instr, fr frame, db *storage.Database, st *Stats) bool {
	t := in.probeTuple(fr)
	st.Probes++
	st.IndexProbes++
	rel := in.rel
	if rel == nil {
		rel = db.Relation(in.pred)
	}
	return rel == nil || rel.Arity != len(t) || !rel.Contains(t)
}

// probeTuple resolves the instruction's refs under fr into its reusable
// probe buffer: membership probes never keep their argument.
func (in *instr) probeTuple(fr frame) storage.Tuple {
	if in.probe == nil {
		in.probe = make(storage.Tuple, len(in.refs))
	}
	for k, r := range in.refs {
		in.probe[k] = r.resolve(fr)
	}
	return in.probe
}

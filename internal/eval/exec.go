package eval

import (
	"fmt"

	"repro/internal/storage"
)

// executor runs a compiled program depth-first over its register frame.
// One executor is built per rule firing; the frame is reused across all
// derivations of that firing (backtracking resets only the slots each
// step bound). Executors never mutate relations: every write happens
// in the emit callback the caller supplies.
type executor struct {
	c     *compiled
	db    *storage.Database
	delta []storage.Tuple // tuples for the delta occurrence (step 0), if any
	st    *Stats
	fr    frame
	emit  func(frame) error
}

// runCompiled executes c with the given delta slice, counting work into
// st and calling emit for every complete binding. seed pre-binds slots
// 0..len(seed)-1 (the compiler allocates prebound variables first; the
// Explain path seeds them from the ground goal); nil for engine plans.
// Plans carrying a Generic Join program dispatch to the leapfrog
// executor (gj.go) instead of the binary instruction loop.
func (e *Engine) runCompiled(c *compiled, delta []storage.Tuple, seed []storage.Value, st *Stats, emit func(frame) error) error {
	if c.gj != nil {
		return c.gj.run(e.db, delta, st, emit)
	}
	x := &executor{c: c, db: e.db, delta: delta, st: st, fr: make(frame, c.nSlots), emit: emit}
	copy(x.fr, seed)
	return x.step(0)
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
			// for plans compiled outside a fixpoint, e.g. Explain after
			// new facts were loaded).
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
			t := make(storage.Tuple, len(in.scanArgs))
			for k := range in.scanArgs {
				a := &in.scanArgs[k]
				if a.kind == argConst {
					t[k] = a.c
				} else {
					t[k] = x.fr[a.slot]
				}
			}
			x.st.Probes++
			x.st.IndexProbes++
			if !rel.Contains(t) {
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
		return x.scanTuples(i, in, rel.Tuples())
	}
	return fmt.Errorf("eval: unknown instruction kind %d", in.kind)
}

func (x *executor) scanTuples(i int, in *instr, tuples []storage.Tuple) error {
	for _, t := range tuples {
		if err := x.tryTuple(i, in, t); err != nil {
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
	t := make(storage.Tuple, len(in.refs))
	for k, r := range in.refs {
		t[k] = r.resolve(fr)
	}
	st.Probes++
	st.IndexProbes++
	rel := in.rel
	if rel == nil {
		rel = db.Relation(in.pred)
	}
	return rel == nil || rel.Arity != len(t) || !rel.Contains(t)
}

package eval

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/storage"
)

// This file implements slot compilation: a planned rule body
// ([]planStep from planBody) is lowered once into a flat instruction
// program over an integer-indexed register frame — one slot per
// distinct variable, assigned at compile time. Execution (exec.go) then
// binds and probes through slice indexing instead of the
// map[ast.Var]ast.Term substitutions the interpreter used before, and
// the compiled program is cached for the whole fixpoint instead of
// being re-derived every round. Slots hold interned storage.Values, so
// every bind and check inside a join is a word copy or compare.

// frame is the register file of a compiled plan: one interned value per
// variable slot, storage.NoValue while unbound.
type frame []storage.Value

// argRef refers to either a constant or a variable slot.
type argRef struct {
	slot int           // valid when >= 0
	c    storage.Value // valid when slot < 0
}

func constRef(v storage.Value) argRef { return argRef{slot: -1, c: v} }
func slotRef(s int) argRef            { return argRef{slot: s} }

// resolve reads the value of a reference under fr. Bound slots hold
// interned values by construction.
func (r argRef) resolve(fr frame) storage.Value {
	if r.slot >= 0 {
		return fr[r.slot]
	}
	return r.c
}

// scanArgKind classifies one column of a scan step.
type scanArgKind uint8

const (
	argConst     scanArgKind = iota // column must equal a constant
	argCheckSlot                    // column must equal an already-bound slot
	argBindSlot                     // column binds this slot
)

type scanArg struct {
	kind scanArgKind
	slot int           // argCheckSlot / argBindSlot
	c    storage.Value // argConst
}

// instr is one compiled instruction. A tagged struct (rather than an
// interface) keeps dispatch a jump table and the program contiguous.
type instr struct {
	kind stepKind

	// stepScan
	pred      string
	rel       *storage.Relation // resolved at compile time; nil if the relation did not exist yet
	useDelta  bool
	scanArgs  []scanArg
	lookupCol int    // column probed through the hash index; -1 = full scan
	lookupRef argRef // value for lookupCol
	binds     []int  // slots bound by this scan, reset on backtrack
	member    bool   // all columns bound: a single membership probe

	// stepFilter (op, neg, a, b) and stepBind (slot, a)
	op   string
	neg  bool
	a, b argRef
	slot int

	// stepNegCheck, and member scans: the probed columns
	refs  []argRef
	probe storage.Tuple // reusable probe buffer (probeTuple)
}

// compiled is an executable rule body plus its head projection. When
// the planner selects the Generic Join path for the body, gj holds the
// compiled leapfrog program and execution dispatches to it instead of
// running ops (which stay compiled as the fallback).
type compiled struct {
	ops    []instr
	nSlots int
	head   []argRef  // head projection, all const or bound slots
	vars   []ast.Var // slot -> variable, for witness reconstruction
	gj     *gjProgram
	exec   executor      // reused by every binary firing (runCompiled)
	out    storage.Tuple // headTuple's buffer
}

// headTuple projects the head tuple out of a complete frame into the
// program's reusable buffer: the result is valid until the next call,
// so callers that keep it copy it (storage's Insert and Add do).
func (c *compiled) headTuple(fr frame) storage.Tuple {
	if c.out == nil {
		c.out = make(storage.Tuple, len(c.head))
	}
	for i, r := range c.head {
		c.out[i] = r.resolve(fr)
	}
	return c.out
}

// subst reconstructs a substitution from a frame — used by Explain,
// which needs named bindings to instantiate body atoms.
func (c *compiled) subst(fr frame) ast.Subst {
	s := make(ast.Subst, len(fr))
	for i, v := range fr {
		if v != storage.NoValue {
			s[c.vars[i]] = v.Term()
		}
	}
	return s
}

// compiler tracks slot allocation and static boundness while lowering
// plan steps. Boundness mirrors planBody's tracking exactly, so every
// dynamic env.Lookup of the old interpreter becomes a compile-time
// classification.
type compiler struct {
	slots map[ast.Var]int
	bound map[int]bool
	vars  []ast.Var
}

func (cp *compiler) slotOf(v ast.Var) int {
	if s, ok := cp.slots[v]; ok {
		return s
	}
	s := len(cp.vars)
	cp.slots[v] = s
	cp.vars = append(cp.vars, v)
	return s
}

// ref classifies a term as a constant or a slot; ok reports whether the
// term is ground-or-bound at this point of the plan.
func (cp *compiler) ref(t ast.Term) (argRef, bool) {
	if v, isVar := t.(ast.Var); isVar {
		s := cp.slotOf(v)
		return slotRef(s), cp.bound[s]
	}
	return constRef(storage.Intern(t)), true
}

// slotIn reports whether slot s is among binds.
func slotIn(binds []int, s int) bool {
	for _, b := range binds {
		if b == s {
			return true
		}
	}
	return false
}

// compilePlan lowers a planned body into an executable program. db
// resolves database relations at compile time (relations are never
// replaced during a fixpoint; ones created later are re-resolved at
// run time). prebound lists variables whose slots the caller seeds
// before execution, in slot order 0..len-1.
func compilePlan(plan []planStep, head ast.Atom, db *storage.Database, prebound []ast.Var) (*compiled, error) {
	cp := &compiler{slots: make(map[ast.Var]int), bound: make(map[int]bool)}
	for _, v := range prebound {
		cp.bound[cp.slotOf(v)] = true
	}
	c := &compiled{}
	for _, step := range plan {
		switch step.kind {
		case stepScan:
			atom := step.lit.Atom
			in := instr{kind: stepScan, pred: atom.Pred, useDelta: step.useDelta, lookupCol: -1}
			if !step.useDelta {
				in.rel = db.Relation(atom.Pred)
				if in.rel != nil && in.rel.Arity != len(atom.Args) {
					return nil, fmt.Errorf("eval: %s used with arity %d but stored with arity %d",
						atom.Pred, len(atom.Args), in.rel.Arity)
				}
			}
			in.scanArgs = make([]scanArg, len(atom.Args))
			for k, arg := range atom.Args {
				r, isBound := cp.ref(arg)
				switch {
				case r.slot < 0:
					in.scanArgs[k] = scanArg{kind: argConst, c: r.c}
				case isBound:
					in.scanArgs[k] = scanArg{kind: argCheckSlot, slot: r.slot}
				default:
					in.scanArgs[k] = scanArg{kind: argBindSlot, slot: r.slot}
					in.binds = append(in.binds, r.slot)
					cp.bound[r.slot] = true
				}
				// The first column whose value exists before the scan
				// runs drives the index probe; the delta occurrence is
				// always scanned linearly (it is step 0 and arrives as
				// a plain slice). A checked slot bound by an earlier
				// column of this same atom (a repeated variable, e.g.
				// e(X, X)) is still nil when the probe would read it,
				// so it cannot be the lookup column.
				if !step.useDelta && in.lookupCol < 0 && in.scanArgs[k].kind != argBindSlot &&
					!(in.scanArgs[k].kind == argCheckSlot && slotIn(in.binds, r.slot)) {
					in.lookupCol = k
					in.lookupRef = r
				}
			}
			if in.member = len(in.binds) == 0 && !step.useDelta; in.member {
				in.refs = memberRefs(in.scanArgs)
			}
			c.ops = append(c.ops, in)

		case stepFilter:
			atom := step.lit.Atom
			if !atom.IsEvaluable() || len(atom.Args) != 2 {
				return nil, fmt.Errorf("eval: %s is not a binary evaluable literal", step.lit)
			}
			a, okA := cp.ref(atom.Args[0])
			b, okB := cp.ref(atom.Args[1])
			if !okA || !okB {
				return nil, fmt.Errorf("eval: comparison %s has unbound arguments", step.lit)
			}
			c.ops = append(c.ops, instr{kind: stepFilter, op: atom.Pred, neg: step.lit.Neg, a: a, b: b})

		case stepBind:
			atom := step.lit.Atom
			a, okA := cp.ref(atom.Args[0])
			b, okB := cp.ref(atom.Args[1])
			var slot int
			var src argRef
			switch {
			case !okA && okB:
				slot, src = a.slot, b
			case okA && !okB:
				slot, src = b.slot, a
			default:
				return nil, fmt.Errorf("eval: unbound equality %s", step.lit)
			}
			cp.bound[slot] = true
			c.ops = append(c.ops, instr{kind: stepBind, slot: slot, a: src})

		case stepNegCheck:
			atom := step.lit.Atom
			in := instr{kind: stepNegCheck, pred: atom.Pred, rel: db.Relation(atom.Pred)}
			in.refs = make([]argRef, len(atom.Args))
			for k, arg := range atom.Args {
				r, isBound := cp.ref(arg)
				if !isBound {
					return nil, fmt.Errorf("eval: negated literal %s not fully bound", step.lit)
				}
				in.refs[k] = r
			}
			c.ops = append(c.ops, in)

		default:
			return nil, fmt.Errorf("eval: unknown plan step kind %d", step.kind)
		}
	}
	c.head = make([]argRef, len(head.Args))
	for i, arg := range head.Args {
		r, isBound := cp.ref(arg)
		if !isBound {
			return nil, fmt.Errorf("eval: head variable %s of %s is not range restricted", arg, head)
		}
		c.head[i] = r
	}
	c.nSlots = len(cp.vars)
	c.vars = cp.vars
	return c, nil
}

// memberRefs lowers the columns of a scan whose every column is
// constant or bound into the refs of a membership probe.
func memberRefs(args []scanArg) []argRef {
	refs := make([]argRef, len(args))
	for k, a := range args {
		if a.kind == argConst {
			refs[k] = constRef(a.c)
		} else {
			refs[k] = slotRef(a.slot)
		}
	}
	return refs
}

// prepareIndexes builds every hash index the compiled program will
// probe, once per stratum instead of on the first probe of each
// firing; indexes on still-growing component relations stay valid
// because Insert maintains them incrementally.
func (c *compiled) prepareIndexes() {
	for i := range c.ops {
		in := &c.ops[i]
		if in.kind == stepScan && in.rel != nil && in.lookupCol >= 0 && !in.member {
			in.rel.EnsureIndex(in.lookupCol)
		}
	}
}

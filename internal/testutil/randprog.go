package testutil

import (
	"fmt"
	"math/rand"

	"repro/internal/ast"
)

// RandProgramConfig scales RandProgram.
type RandProgramConfig struct {
	// Arity of the recursive predicate (2..4 is sensible).
	Arity int
	// EDBPreds is the number of extensional predicates to draw from.
	EDBPreds int
	// RecRules and ExitRules count the rules generated (at least 1
	// each).
	RecRules, ExitRules int
	// Negation leaves the paper's class on purpose, for the maintenance
	// differentials: every recursive rule gains a negated EDB literal,
	// and strata are stacked above p that negate it (see negationStrata).
	// The extra EDB predicate node/1 joins the returned arities. It only
	// adds random draws: with it off, a seed yields the same program as
	// before the field existed.
	Negation bool
}

func (c RandProgramConfig) norm() RandProgramConfig {
	if c.Arity < 2 {
		c.Arity = 2
	}
	if c.EDBPreds < 2 {
		c.EDBPreds = 2
	}
	if c.RecRules < 1 {
		c.RecRules = 1
	}
	if c.ExitRules < 1 {
		c.ExitRules = 1
	}
	return c
}

// RandProgram generates a random program inside the paper's class: one
// linearly recursive predicate p, range-restricted and connected rules,
// EDB subgoals only besides the single recursive occurrence. It also
// returns the arities of the EDB predicates for database generation.
func RandProgram(rng *rand.Rand, cfg RandProgramConfig) (*ast.Program, map[string]int) {
	cfg = cfg.norm()
	arities := make(map[string]int)
	edb := make([]string, cfg.EDBPreds)
	for i := range edb {
		edb[i] = fmt.Sprintf("e%d", i)
		arities[edb[i]] = 2 + rng.Intn(2) // arity 2 or 3
	}
	// A dedicated base predicate guarantees a productive exit rule.
	arities["base"] = cfg.Arity

	n := cfg.Arity
	head := ast.Atom{Pred: "p", Args: make([]ast.Term, n)}
	for i := range head.Args {
		head.Args[i] = ast.HeadVar(i + 1)
	}

	// extraAtom builds an EDB atom over head variables; one time in
	// three it repeats a single variable across every position (e.g.
	// e(X, X)), exercising the repeated-variable scan path.
	extraAtom := func() ast.Atom {
		e := edb[rng.Intn(len(edb))]
		args := make([]ast.Term, arities[e])
		if rng.Intn(3) == 0 {
			v := head.Args[rng.Intn(n)]
			for i := range args {
				args[i] = v
			}
		} else {
			for i := range args {
				args[i] = head.Args[rng.Intn(n)]
			}
		}
		return ast.Atom{Pred: e, Args: args}
	}

	prog := &ast.Program{}
	// Exit rules: base(X1..Xn) possibly with an extra connected EDB
	// atom.
	for r := 0; r < cfg.ExitRules; r++ {
		body := []ast.Literal{ast.Pos(ast.Atom{Pred: "base", Args: append([]ast.Term(nil), head.Args...)})}
		if rng.Intn(2) == 0 {
			body = append(body, ast.Pos(extraAtom()))
		}
		prog.Rules = append(prog.Rules, ast.Rule{Head: head.Clone(), Body: body})
	}
	// Recursive rules.
	for r := 0; r < cfg.RecRules; r++ {
		var body []ast.Literal
		// Recursive arguments: pass-throughs or fresh locals.
		recArgs := make([]ast.Term, n)
		var localAt []int
		for i := range recArgs {
			if rng.Intn(2) == 0 {
				recArgs[i] = head.Args[i]
			} else {
				recArgs[i] = ast.Var(fmt.Sprintf("L%d_%d", r, i))
				localAt = append(localAt, i)
			}
		}
		// Each local at position i is bound by an EDB atom that also
		// contains X_i, so every head variable occurs in the body and
		// the rule stays connected and range-restricted.
		for _, i := range localAt {
			e := edb[rng.Intn(len(edb))]
			args := make([]ast.Term, arities[e])
			args[0] = head.Args[i]
			args[len(args)-1] = recArgs[i]
			for j := 1; j < len(args)-1; j++ {
				args[j] = head.Args[rng.Intn(n)]
			}
			body = append(body, ast.Pos(ast.Atom{Pred: e, Args: args}))
		}
		// An extra EDB atom over head variables; mandatory when the
		// rule would otherwise be the degenerate p :- p identity.
		if len(localAt) == 0 || rng.Intn(2) == 0 {
			body = append(body, ast.Pos(extraAtom()))
		}
		body = append(body, ast.Pos(ast.Atom{Pred: "p", Args: recArgs}))
		if cfg.Negation {
			// A negated EDB literal over variables the rule binds (head
			// variables and the recursive literal's locals), sometimes
			// with a constant or one variable repeated throughout.
			e := edb[rng.Intn(len(edb))]
			vars := append(append([]ast.Term(nil), head.Args...), recArgs...)
			args := make([]ast.Term, arities[e])
			for i := range args {
				args[i] = vars[rng.Intn(len(vars))]
			}
			switch rng.Intn(3) {
			case 0:
				for i := range args {
					args[i] = args[0]
				}
			case 1:
				args[rng.Intn(len(args))] = ast.Sym("c0")
			}
			body = append(body, ast.Neg(ast.Atom{Pred: e, Args: args}))
		}
		prog.Rules = append(prog.Rules, ast.Rule{Head: head.Clone(), Body: body})
	}
	if cfg.Negation {
		arities["node"] = 1
		prog.Rules = append(prog.Rules, negationStrata(head)...)
	}
	prog.EnsureLabels()
	return prog, arities
}

// negationStrata stacks the shapes stratified negation can take above
// the recursive predicate whose head atom is given (variables X1..Xn):
//
//	np(X1..Xn)     :- node(X1), …, node(Xn), not p(X1..Xn).   a stratum negating p
//	oneway(X1..Xn) :- p(X1..Xn), not p(Xn..X1).               p positive and negated in one rule
//	noloop(X1)     :- node(X1), not p(X1, …, X1).             a repeated variable under not
//	nc(X1)         :- node(X1), not p(c0, X1, …, X1).         a constant under not
//	two(X1)        :- node(X1), not noloop(X1), not nc(X1).   a second level, two negated literals
//	up(X1..Xn)     :- oneway(X1..Xn).                         recursion above negation, with a
//	up(X1..Xn)     :- up(X1..Xn-1, Z), oneway(Z, X2..Xn),     negated lower IDB literal inside
//	                  not nc(Xn).                             the recursive rule
func negationStrata(head ast.Atom) []ast.Rule {
	n := len(head.Args)
	x := head.Args
	atom := func(pred string, args ...ast.Term) ast.Atom { return ast.Atom{Pred: pred, Args: args} }
	over := func(pred string) ast.Atom { return atom(pred, append([]ast.Term(nil), x...)...) }
	node := func(v ast.Term) ast.Literal { return ast.Pos(atom("node", v)) }

	var nodes []ast.Literal
	reversed := make([]ast.Term, n)
	loop := make([]ast.Term, n)
	withConst := make([]ast.Term, n)
	for i, v := range x {
		nodes = append(nodes, node(v))
		reversed[n-1-i] = v
		loop[i] = x[0]
		withConst[i] = x[0]
	}
	withConst[0] = ast.Sym("c0")

	z := ast.Var("Z")
	upRec := append(append([]ast.Term(nil), x[:n-1]...), z)
	step := append([]ast.Term{z}, x[1:]...)
	return []ast.Rule{
		{Head: over("np"), Body: append(nodes, ast.Neg(over("p")))},
		{Head: over("oneway"), Body: []ast.Literal{ast.Pos(over("p")), ast.Neg(atom("p", reversed...))}},
		{Head: atom("noloop", x[0]), Body: []ast.Literal{node(x[0]), ast.Neg(atom("p", loop...))}},
		{Head: atom("nc", x[0]), Body: []ast.Literal{node(x[0]), ast.Neg(atom("p", withConst...))}},
		{Head: atom("two", x[0]), Body: []ast.Literal{node(x[0]), ast.Neg(atom("noloop", x[0])), ast.Neg(atom("nc", x[0]))}},
		{Head: over("up"), Body: []ast.Literal{ast.Pos(over("oneway"))}},
		{Head: over("up"), Body: []ast.Literal{ast.Pos(atom("up", upRec...)), ast.Pos(atom("oneway", step...)), ast.Neg(atom("nc", x[n-1]))}},
	}
}

// RandChainIC generates a random integrity constraint in the §3 chain
// class over the given EDB predicates: 1..3 database atoms, consecutive
// ones sharing exactly one fresh variable, optionally one comparison
// condition and either no head (denial), a comparison head, or an EDB
// head sharing a variable with the chain.
func RandChainIC(rng *rand.Rand, arities map[string]int, label string) ast.IC {
	var preds []string
	for p := range arities {
		preds = append(preds, p)
	}
	// Deterministic order for reproducibility under a fixed seed.
	for i := 1; i < len(preds); i++ {
		for j := i; j > 0 && preds[j] < preds[j-1]; j-- {
			preds[j], preds[j-1] = preds[j-1], preds[j]
		}
	}
	fresh := 0
	newVar := func() ast.Var {
		fresh++
		return ast.Var(fmt.Sprintf("V%d", fresh))
	}
	k := 1 + rng.Intn(3)
	var body []ast.Literal
	var link ast.Var
	var allVars []ast.Var
	for i := 0; i < k; i++ {
		p := preds[rng.Intn(len(preds))]
		args := make([]ast.Term, arities[p])
		for j := range args {
			v := newVar()
			args[j] = v
			allVars = append(allVars, v)
		}
		if i > 0 {
			// Share exactly one variable with the previous atom.
			args[rng.Intn(len(args))] = link
		}
		link = args[len(args)-1].(ast.Var)
		body = append(body, ast.Pos(ast.Atom{Pred: p, Args: args}))
	}
	// Optional evaluable condition on some chain variable.
	if rng.Intn(2) == 0 {
		v := allVars[rng.Intn(len(allVars))]
		ops := []string{ast.OpLe, ast.OpGt, ast.OpLt, ast.OpGe}
		body = append(body, ast.Pos(ast.NewAtom(ops[rng.Intn(len(ops))], v, ast.Int(int64(rng.Intn(8))))))
	}
	ic := ast.IC{Label: label, Body: body}
	switch rng.Intn(3) {
	case 0:
		// Denial.
	case 1:
		// Comparison head.
		v := allVars[rng.Intn(len(allVars))]
		h := ast.NewAtom(ast.OpGe, v, ast.Int(0))
		ic.Head = &h
	default:
		// EDB head sharing one chain variable; other positions fresh
		// (existential).
		p := preds[rng.Intn(len(preds))]
		args := make([]ast.Term, arities[p])
		for j := range args {
			args[j] = newVar()
		}
		args[rng.Intn(len(args))] = allVars[rng.Intn(len(allVars))]
		h := ast.Atom{Pred: p, Args: args}
		ic.Head = &h
	}
	return ic
}

// Package repro is a deductive-database engine with semantic
// optimization of recursive queries, reproducing Lakshmanan & Missaoui,
// "Pushing Semantics inside Recursion: A General Framework for Semantic
// Optimization of Recursive Queries" (ICDE 1995).
//
// The package is a facade over the implementation packages:
//
//   - parsing of the paper's Prolog-like notation for rules, facts and
//     integrity constraints (internal/parser);
//   - a bottom-up engine with semi-naive evaluation and index-backed
//     joins (internal/eval, internal/storage);
//   - residue generation against expansion sequences via the AP/SD-graph
//     detector of §3 (internal/subsume, internal/sdgraph,
//     internal/residue);
//   - the §4 program transformations: sequence isolation (Algorithm
//     4.1 and its flat form) and pushing of atom elimination, atom
//     introduction and subtree pruning (internal/transform), assembled
//     into an end-to-end optimizer (internal/semopt);
//   - magic-sets rewriting, the paper's stated analogue
//     (internal/magic);
//   - intelligent query answering per §5 (internal/iqa).
//
// A minimal session:
//
//	sys, err := repro.Load(`
//	    anc(X, Y) :- par(X, Y).
//	    anc(X, Y) :- anc(X, Z), par(Z, Y).
//	`)
//	sys.DB.Add("par", repro.S("ann"), repro.S("bea"))
//	res, err := sys.Optimize(repro.OptimizeOptions{})
//	answers, err := sys.Query("anc(ann, Y)")
package repro

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/iqa"
	"repro/internal/magic"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/planner"
	"repro/internal/residue"
	"repro/internal/semopt"
	"repro/internal/storage"
)

// Core re-exported types. Aliases keep the internal packages as the
// single source of truth while giving users importable names.
type (
	// Program is a set of rules.
	Program = ast.Program
	// Rule is a single Horn clause.
	Rule = ast.Rule
	// Atom is a predicate applied to terms.
	Atom = ast.Atom
	// Literal is a possibly negated atom.
	Literal = ast.Literal
	// IC is an integrity constraint (body -> head).
	IC = ast.IC
	// Term is a variable, symbol, or integer.
	Term = ast.Term
	// DB is the extensional + computed intensional store.
	DB = storage.Database
	// Tuple is a row of a relation.
	Tuple = storage.Tuple
	// Stats carries deterministic evaluation work counters.
	Stats = eval.Stats
	// RunInfo is the observability snapshot of an evaluation: counters
	// plus per-stratum and per-rule breakdowns.
	RunInfo = eval.RunInfo
	// Tracer records spans and counters; see internal/obs.
	Tracer = obs.Tracer
	// OptimizeResult reports an optimization run.
	OptimizeResult = semopt.Result
	// Opportunity is one verified semantic optimization.
	Opportunity = residue.Opportunity
	// KnowledgeQuery is a §5 "describe … where …" query.
	KnowledgeQuery = iqa.Query
	// Derivation is a proof tree explaining a derived tuple.
	Derivation = eval.Derivation
	// GroundedAnswer is an intelligent answer evaluated against the data.
	GroundedAnswer = iqa.Evaluated
	// IntelligentAnswer is the descriptive answer to a KnowledgeQuery.
	IntelligentAnswer = iqa.Answer
)

// Term constructors.

// V builds a variable term.
func V(name string) Term { return ast.Var(name) }

// S builds a symbolic constant.
func S(name string) Term { return ast.Sym(name) }

// I builds an integer constant.
func I(n int64) Term { return ast.Int(n) }

// System bundles a program, its integrity constraints and a database.
type System struct {
	Program *Program
	ICs     []IC
	DB      *DB

	// Tracer, when non-nil, records spans from every evaluation and
	// optimization this system runs (see obs.New). Nil — the default —
	// keeps the engines on their untraced path.
	Tracer *Tracer

	optimized *Program
	lastStats Stats
	lastInfo  RunInfo

	// ranks is the rank certificate (see eval.ZState) of the tuples
	// the program ranked derived in DB; Explain walks it.
	ranks  *eval.ZState
	ranked *Program
}

// engine builds an evaluation engine for prog over db honoring the
// system's Tracer setting.
func (s *System) engine(prog *Program, db *DB) *eval.Engine {
	e := eval.New(prog, db)
	e.SetTracer(s.Tracer)
	return e
}

// run evaluates the active program to fixpoint over DB, recording
// ranks, and keeps the run's counters. When the active program is not
// the one the ranks certify, the tuples that program derived are
// removed first, so this run derives and ranks the new program's own.
func (s *System) run() (*eval.Engine, error) {
	prog := s.ActiveProgram()
	if s.ranked != prog {
		if s.ranked != nil {
			for p := range s.ranked.IDBPreds() {
				if rel := s.DB.Relation(p); rel != nil {
					// Last first: a removal moves only the last tuple.
					rts := rel.Ranked()
					for i := len(rts) - 1; i >= 0; i-- {
						rel.Remove(rts[i].T)
					}
				}
			}
		}
		s.ranks, s.ranked = eval.NewZState(), prog
	}
	e := s.engine(prog, s.DB)
	e.SetRankSink(s.ranks.Record)
	err := e.Run()
	s.lastStats, s.lastInfo = e.Stats(), e.Info()
	return e, err
}

// Load parses a source text containing rules, facts and integrity
// constraints, loads the facts into a fresh database, and returns the
// ready system.
func Load(src string) (*System, error) {
	db := storage.NewDatabase()
	res, err := parser.ParseInto(src, db)
	if err != nil {
		return nil, err
	}
	return &System{Program: res.Program, ICs: res.ICs, DB: db}, nil
}

// ParseProgram parses rules and facts only.
func ParseProgram(src string) (*Program, error) { return parser.ParseProgram(src) }

// ParseIC parses one integrity constraint.
func ParseIC(src string) (IC, error) { return parser.ParseIC(src) }

// ParseAtom parses one atom, e.g. a query goal.
func ParseAtom(src string) (Atom, error) { return parser.ParseAtom(src) }

// OptimizeOptions configures System.Optimize.
type OptimizeOptions struct {
	// SmallPreds names database predicates treated as small relations
	// for §4(2) atom introduction.
	SmallPreds map[string]bool
	// MaxDepth bounds expansion-sequence search (default 6).
	MaxDepth int
	// Preds restricts optimization to these predicates.
	Preds []string
}

// Optimize runs the paper's pipeline — residue generation (§3) and
// pushing (§4) — against the system's constraints, remembers the
// optimized program for subsequent Run/Query calls, and returns the
// full report.
func (s *System) Optimize(opts OptimizeOptions) (*OptimizeResult, error) {
	res, err := semopt.Optimize(s.Program, s.ICs, semopt.Options{
		Residue: residue.Options{
			MaxDepth:       opts.MaxDepth,
			IntroducePreds: opts.SmallPreds,
		},
		Preds:  opts.Preds,
		Tracer: s.Tracer,
	})
	if err != nil {
		return nil, err
	}
	s.optimized = res.Optimized
	return res, nil
}

// PlanDecision is the cost-based planner's verdict: chosen variant plus
// every candidate's estimate (see internal/planner).
type PlanDecision = planner.Decision

// PlanOptions configures System.Plan.
type PlanOptions struct {
	// Variant pins one plan ("orig", "iso", "opt", "magic", "bounded");
	// "" or "auto" lets the cost model choose.
	Variant string
	// Goal, when non-empty, is the bound query goal (source syntax,
	// e.g. "anc(ann, Y)") that makes the magic-sets candidate
	// available. A magic plan computes only the goal's answers.
	Goal string
	// SmallPreds names database predicates treated as small relations
	// for §4(2) atom introduction, as in Optimize.
	SmallPreds map[string]bool
}

// Plan runs cost-based plan selection over the system's program,
// integrity constraints and current database: the rewrite space (the
// original program, the paper's iso/opt transformations, magic sets
// for a bound goal, and a non-recursive plan when the recursion is
// provably bounded) is enumerated and priced against EDB statistics,
// and the winner becomes the active program for subsequent Run/Query
// calls — superseding any earlier Optimize result. Facts must already
// be loaded: the estimates read the data.
func (s *System) Plan(opts PlanOptions) (*PlanDecision, error) {
	v, err := planner.ParseVariant(opts.Variant)
	if err != nil {
		return nil, err
	}
	popts := planner.Options{ICs: s.ICs, SmallPreds: opts.SmallPreds}
	if v != planner.Auto {
		popts.Force = v
	}
	if opts.Goal != "" {
		g, err := parser.ParseAtom(opts.Goal)
		if err != nil {
			return nil, fmt.Errorf("repro: bad goal: %w", err)
		}
		popts.Goal = &g
	}
	d, err := planner.Plan(s.Program, s.DB, popts)
	if err != nil {
		return nil, err
	}
	s.optimized = d.Program()
	return d, nil
}

// ActiveProgram returns the program Run will evaluate: the optimized
// one if Optimize succeeded, the original otherwise.
func (s *System) ActiveProgram() *Program {
	if s.optimized != nil {
		return s.optimized
	}
	return s.Program
}

// Run evaluates the active program to fixpoint over the system's
// database.
func (s *System) Run() (Stats, error) {
	_, err := s.run()
	return s.lastStats, err
}

// Query evaluates (if needed) and returns the tuples matching the goal,
// given in source syntax, e.g. "anc(ann, Y)".
func (s *System) Query(goal string) ([]Tuple, error) {
	g, err := parser.ParseAtom(goal)
	if err != nil {
		return nil, fmt.Errorf("repro: bad goal: %w", err)
	}
	return s.QueryAtom(g)
}

// QueryAtom is Query with a pre-parsed goal.
func (s *System) QueryAtom(goal Atom) ([]Tuple, error) {
	e, err := s.run()
	if err != nil {
		return nil, err
	}
	return e.Query(goal)
}

// QueryMagic rewrites the active program with magic sets for the bound
// goal, evaluates it on a clone of the database (so unrelated IDB
// tuples are not materialized into the system), and returns the goal's
// answers plus the evaluation stats.
func (s *System) QueryMagic(goal string) ([]Tuple, Stats, error) {
	g, err := parser.ParseAtom(goal)
	if err != nil {
		return nil, Stats{}, fmt.Errorf("repro: bad goal: %w", err)
	}
	mp, err := magic.Rewrite(s.ActiveProgram(), g)
	if err != nil {
		return nil, Stats{}, err
	}
	work := s.DB.Clone()
	e := s.engine(mp, work)
	if err := e.Run(); err != nil {
		return nil, Stats{}, err
	}
	res, err := e.Query(g)
	return res, e.Stats(), err
}

// Describe answers a §5 knowledge query ("describe goal where
// context"). maxExpansions bounds proof-tree depth for recursive goals.
func (s *System) Describe(goal string, context string, maxExpansions int) (*IntelligentAnswer, error) {
	g, err := parser.ParseAtom(goal)
	if err != nil {
		return nil, fmt.Errorf("repro: bad goal: %w", err)
	}
	// The context is parsed as a rule body via a synthetic head.
	r, err := parser.ParseRule("ctx(X9999) :- " + context + ".")
	if err != nil {
		return nil, fmt.Errorf("repro: bad context: %w", err)
	}
	return iqa.Describe(s.Program, iqa.Query{Goal: g, Context: r.Body}, maxExpansions)
}

// DescribeGrounded answers a knowledge query and grounds the
// description against the system's database: which objects satisfy the
// context, and which qualify through each proof tree.
func (s *System) DescribeGrounded(goal, context string, maxExpansions int) (*GroundedAnswer, error) {
	a, err := s.Describe(goal, context, maxExpansions)
	if err != nil {
		return nil, err
	}
	return iqa.Evaluate(s.Program, s.DB, a)
}

// Stats returns the counters of the last Run/Query.
func (s *System) Stats() Stats { return s.lastStats }

// LastRunInfo returns the observability snapshot (per-stratum and
// per-rule breakdowns) of the last Run/Query/Explain.
func (s *System) LastRunInfo() RunInfo { return s.lastInfo }

// Explain evaluates (if needed) and returns a proof tree for the ground
// goal atom, e.g. "anc(dan, 21, bob, 72)", walked down the ranks the
// system's evaluations recorded.
func (s *System) Explain(goal string) (*Derivation, error) {
	g, err := parser.ParseAtom(goal)
	if err != nil {
		return nil, fmt.Errorf("repro: bad goal: %w", err)
	}
	e, err := s.run()
	if err != nil {
		return nil, err
	}
	return e.Explain(g)
}

// LoadFacts parses additional ground facts (one "pred(args)." per
// statement) into the system's database. The format is exactly what
// DumpDB produces, so databases round-trip through text. On an error
// the facts read before it stay in the database.
func (s *System) LoadFacts(src string) error {
	res, err := parser.ParseInto(src, s.DB)
	if err != nil {
		return err
	}
	if len(res.ICs) > 0 {
		return fmt.Errorf("repro: LoadFacts input contains integrity constraints")
	}
	if len(res.Program.Rules) > 0 {
		return fmt.Errorf("repro: LoadFacts input contains rule %s", res.Program.Rules[0])
	}
	return nil
}

// DumpDB renders the database as parseable facts, sorted.
func (s *System) DumpDB() string { return s.DB.String() }

// Package planner implements cost-based recursive plan selection: it
// enumerates the rewrite space the rest of the system already knows how
// to build — the original program, the paper's isolation (`iso`) and
// semantic-optimization (`opt`) variants from internal/semopt, the
// magic-sets rewriting (internal/magic) when a bound query goal is
// known, and a non-recursive plan when boundedness analysis proves the
// recursion compiles away (bounded.go) — prices every candidate with a
// cardinality-fixpoint cost model over the EDB relations' sizes and
// column indexes (cost.go), and picks the cheapest.
//
// This closes the ROADMAP's "make semopt pay for itself" item: on
// workloads where residue checks are non-selective the paper's
// transformation *regresses* (E1: opt ~2.7x slower than orig), so
// applying it must be a measured decision, not a flag. The decision is
// made per session at load/reload time and can be revisited from live
// counters (the service's adaptive re-plan path feeds MeasuredCost).
package planner

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/ast"
	"repro/internal/magic"
	"repro/internal/residue"
	"repro/internal/semopt"
	"repro/internal/storage"
	"repro/internal/transform"
)

// Variant names one point of the rewrite space.
type Variant string

const (
	// Auto lets the cost model choose among the enumerated candidates.
	Auto Variant = "auto"
	// Orig is the input program, untransformed.
	Orig Variant = "orig"
	// Iso is the paper's isolation step alone (§4.1, IsolateFlat): the
	// exploitable sequence is isolated but no residue is pushed.
	Iso Variant = "iso"
	// Opt is the paper's full semantic optimization (isolate + push).
	Opt Variant = "opt"
	// Magic is the magic-sets rewriting for a bound query goal.
	Magic Variant = "magic"
	// Bounded replaces a provably bounded recursion with its finite
	// unfolding — a non-recursive program.
	Bounded Variant = "bounded"
)

// Variants lists every selectable variant in enumeration order (the
// tie-break order: earlier wins on equal cost, so the untransformed
// program is preferred when a rewrite buys nothing).
var Variants = []Variant{Orig, Iso, Opt, Magic, Bounded}

// ParseVariant maps the CLI spelling to a Variant. The empty string
// and "auto" select cost-based choice.
func ParseVariant(s string) (Variant, error) {
	switch Variant(s) {
	case "", Auto:
		return Auto, nil
	case Orig, Iso, Opt, Magic, Bounded:
		return Variant(s), nil
	}
	return Auto, fmt.Errorf("planner: unknown plan variant %q (want auto, orig, iso, opt, magic, or bounded)", s)
}

// ErrorBound is the documented multiplicative error bound of the cost
// estimator: the measured cost (engine probe count) of the variant auto
// picks is asserted to stay within ErrorBound times the best measured
// candidate, plus ErrorFloor probes of slack for runs too small for the
// model's asymptotics to matter. The bound is deliberately loose — the
// estimator's job is ranking, and its absolute figures carry the usual
// order-of-magnitude uncertainty of uniformity and containment
// assumptions (DESIGN.md §16 derives where the slack goes).
const (
	ErrorBound = 16.0
	ErrorFloor = 2000.0
)

// Options configures plan enumeration and selection.
type Options struct {
	// ICs are the integrity constraints driving the semantic variants
	// and the boundedness proof.
	ICs []ast.IC
	// SmallPreds marks database predicates cheap enough for atom
	// introduction (§4(2)), as in semopt.
	SmallPreds map[string]bool
	// Goal, when non-nil and binding at least one argument, enables the
	// magic-sets candidate. A magic plan computes only the goal's
	// answers, so callers must scope the session to that goal.
	Goal *ast.Atom
	// Force pins the decision to one variant ("" or Auto lets the cost
	// model choose). Forcing an unavailable variant is an error.
	Force Variant
	// MaxBoundedDepth bounds the boundedness search (default 2): the
	// analysis tries to prove the recursion bounded at depth k for
	// k = 1..MaxBoundedDepth.
	MaxBoundedDepth int
	// ChaseSteps bounds the containment chases of the boundedness
	// proof; 0 uses the chase package default.
	ChaseSteps int
	// MeasuredCost substitutes live measured costs (engine probes) for
	// the static estimate of the named variants. The adaptive re-plan
	// path passes the incumbent's measured per-fixpoint cost here so a
	// plan that underperforms its estimate can be voted out by data.
	MeasuredCost map[Variant]float64
}

func (o Options) maxBoundedDepth() int {
	if o.MaxBoundedDepth <= 0 {
		return 2
	}
	return o.MaxBoundedDepth
}

// Candidate is one enumerated plan with its price.
type Candidate struct {
	Variant Variant      `json:"variant"`
	Program *ast.Program `json:"-"`
	// Cost is the estimated engine probe count to evaluate the program
	// to fixpoint (cost.go); +Inf for unavailable candidates. When the
	// decision used a measured figure instead, Measured is true.
	Cost     float64 `json:"cost"`
	Measured bool    `json:"measured,omitempty"`
	// Note explains how the candidate was derived (e.g. the bounded
	// depth, the isolated sequence); Err why it is unavailable.
	Note string `json:"note,omitempty"`
	Err  string `json:"err,omitempty"`
}

// MarshalJSON omits the cost of unavailable candidates: their +Inf
// sentinel is not a JSON number and would otherwise fail the encode of
// every surface that embeds a Decision.
func (c Candidate) MarshalJSON() ([]byte, error) {
	type wire struct {
		Variant  Variant  `json:"variant"`
		Cost     *float64 `json:"cost,omitempty"`
		Measured bool     `json:"measured,omitempty"`
		Note     string   `json:"note,omitempty"`
		Err      string   `json:"err,omitempty"`
	}
	w := wire{Variant: c.Variant, Measured: c.Measured, Note: c.Note, Err: c.Err}
	if !math.IsInf(c.Cost, 0) && !math.IsNaN(c.Cost) {
		w.Cost = &c.Cost
	}
	return json.Marshal(w)
}

// Decision is the planner's verdict: the chosen variant plus every
// candidate's estimate, kept for observability (the service surfaces
// it in /v1/sessions/{name}/stats).
type Decision struct {
	Chosen      Variant       `json:"chosen"`
	Reason      string        `json:"reason"`
	Candidates  []Candidate   `json:"candidates"`
	CompileTime time.Duration `json:"compile_ns"`
}

// Candidate returns the candidate for v, or nil.
func (d *Decision) Candidate(v Variant) *Candidate {
	for i := range d.Candidates {
		if d.Candidates[i].Variant == v {
			return &d.Candidates[i]
		}
	}
	return nil
}

// Program returns the chosen candidate's program.
func (d *Decision) Program() *ast.Program {
	if c := d.Candidate(d.Chosen); c != nil {
		return c.Program
	}
	return nil
}

// Plan enumerates the rewrite space for prog over db, prices every
// candidate, and picks the winner. Every candidate is priced with
// prog's EDB relations exact, so all of them read the same statistics
// (a rewrite may leave some EDB predicate unused). Pricing builds the
// column indexes it reads on those relations.
func Plan(prog *ast.Program, db *storage.Database, opts Options) (*Decision, error) {
	start := time.Now()
	edb := prog.EDBPreds()
	cands := enumerate(prog, opts)
	for i := range cands {
		if cands[i].Program == nil {
			cands[i].Cost = math.Inf(1)
			continue
		}
		cands[i].Cost = EstimateCost(cands[i].Program, db, edb).Cost
		if m, ok := opts.MeasuredCost[cands[i].Variant]; ok {
			cands[i].Cost = m
			cands[i].Measured = true
		}
	}

	d := &Decision{Candidates: cands}
	force, err := ParseVariant(string(opts.Force))
	if err != nil {
		return nil, err
	}
	if force != Auto {
		c := d.Candidate(force)
		if c == nil || c.Program == nil {
			why := "not enumerated"
			if c != nil && c.Err != "" {
				why = c.Err
			}
			return nil, fmt.Errorf("planner: forced variant %q unavailable: %s", force, why)
		}
		d.Chosen = force
		d.Reason = "forced by configuration"
	} else {
		best := -1
		for i := range cands {
			if cands[i].Program == nil {
				continue
			}
			if best < 0 || cands[i].Cost < cands[best].Cost {
				best = i
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("planner: no evaluable candidate")
		}
		d.Chosen = cands[best].Variant
		d.Reason = fmt.Sprintf("lowest estimated cost (%.4g probes)", cands[best].Cost)
		if cands[best].Measured {
			d.Reason = fmt.Sprintf("lowest measured cost (%.4g probes)", cands[best].Cost)
		}
	}
	d.CompileTime = time.Since(start)
	return d, nil
}

// enumerate builds every candidate program. Candidates that cannot be
// built carry an Err and a nil Program; the caller and the stats
// surface keep them so the decision is auditable.
func enumerate(prog *ast.Program, opts Options) []Candidate {
	orig := prog.Clone()
	orig.EnsureLabels()
	cands := []Candidate{{Variant: Orig, Program: orig, Note: "input program"}}

	// The paper's pipeline: rectify, residue analysis, isolate + push.
	// Its rectified output is also the base for the boundedness proof
	// (unfolding requires a rectified program).
	rectified := orig
	res, err := semopt.Optimize(orig, opts.ICs, semopt.Options{
		Residue: residue.Options{IntroducePreds: opts.SmallPreds},
	})
	switch {
	case err != nil:
		cands = append(cands,
			Candidate{Variant: Iso, Err: fmt.Sprintf("semopt: %v", err)},
			Candidate{Variant: Opt, Err: fmt.Sprintf("semopt: %v", err)})
		if r, rerr := ast.Rectify(orig); rerr == nil {
			rectified = r
		} else {
			rectified = nil
		}
	case len(res.Reports) == 0:
		rectified = res.Rectified
		cands = append(cands,
			Candidate{Variant: Iso, Err: "no exploitable sequence"},
			Candidate{Variant: Opt, Err: "no exploitable sequence"})
	default:
		rectified = res.Rectified
		iso, ierr := transform.IsolateFlat(res.Rectified, res.Reports[0].Seq)
		if ierr != nil {
			cands = append(cands, Candidate{Variant: Iso, Err: ierr.Error()})
		} else {
			cands = append(cands, Candidate{Variant: Iso, Program: iso.Prog,
				Note: fmt.Sprintf("isolated sequence %s", res.Reports[0].Seq)})
		}
		opt, pruned := pruneUnsatisfiable(res.Optimized)
		note := fmt.Sprintf("%d residue push(es)", len(res.Reports))
		if pruned > 0 {
			// A pushed residue contradicting a filter already in the rule
			// (e.g. a selection the caller pushed first) makes the rule
			// statically empty — dropping it is the subtree-pruning payoff
			// of Example 4.3, and can compile the recursion away.
			note += fmt.Sprintf("; %d statically empty rule(s) pruned", pruned)
		}
		cands = append(cands, Candidate{Variant: Opt, Program: opt, Note: note})
	}

	if opts.Goal == nil {
		cands = append(cands, Candidate{Variant: Magic, Err: "no query goal supplied"})
	} else if m, merr := magic.Rewrite(orig, *opts.Goal); merr != nil {
		cands = append(cands, Candidate{Variant: Magic, Err: merr.Error()})
	} else if !goalBinds(*opts.Goal) {
		cands = append(cands, Candidate{Variant: Magic, Err: "goal binds no argument"})
	} else {
		cands = append(cands, Candidate{Variant: Magic, Program: m,
			Note: fmt.Sprintf("adorned for goal %s; answers scoped to it", opts.Goal)})
	}

	if rectified == nil {
		cands = append(cands, Candidate{Variant: Bounded, Err: "program could not be rectified"})
	} else if b, k, ok, berr := BoundedRewrite(rectified, opts.ICs, opts.maxBoundedDepth(), opts.ChaseSteps); berr != nil {
		cands = append(cands, Candidate{Variant: Bounded, Err: berr.Error()})
	} else if !ok {
		cands = append(cands, Candidate{Variant: Bounded,
			Err: fmt.Sprintf("not provably bounded at depth <= %d", opts.maxBoundedDepth())})
	} else {
		cands = append(cands, Candidate{Variant: Bounded, Program: b,
			Note: fmt.Sprintf("recursion bounded at depth %d; compiled away", k)})
	}

	sort.SliceStable(cands, func(i, j int) bool {
		return variantRank(cands[i].Variant) < variantRank(cands[j].Variant)
	})
	return cands
}

func variantRank(v Variant) int {
	for i, w := range Variants {
		if v == w {
			return i
		}
	}
	return len(Variants)
}

// pruneUnsatisfiable drops rules whose body is provably unsatisfiable
// (transform.UnsatisfiableBody): they can never fire, so removing them
// preserves the fixpoint exactly. Returns the count dropped; the input
// is returned unchanged when nothing is droppable.
func pruneUnsatisfiable(p *ast.Program) (*ast.Program, int) {
	dropped := 0
	for _, r := range p.Rules {
		if transform.UnsatisfiableBody(r.Body) {
			dropped++
		}
	}
	if dropped == 0 {
		return p, 0
	}
	out := &ast.Program{}
	for _, r := range p.Rules {
		if !transform.UnsatisfiableBody(r.Body) {
			out.Rules = append(out.Rules, r.Clone())
		}
	}
	out.EnsureLabels()
	return out, dropped
}

// goalBinds reports whether the goal has at least one constant
// argument (the condition for magic sets to do anything).
func goalBinds(goal ast.Atom) bool {
	for _, t := range goal.Args {
		if _, ok := t.(ast.Var); !ok {
			return true
		}
	}
	return false
}

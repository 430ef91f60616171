package planner

import (
	"math"

	"repro/internal/ast"
	"repro/internal/storage"
)

// The cost model: a cardinality-fixpoint abstract interpretation of
// the program over the EDB statistics, which are the relations
// themselves: row counts, and per-column distinct counts and value
// frequencies read from the column hash indexes storage keeps exact.
//
// Cardinalities. Every EDB predicate starts at its exact row count;
// every other predicate at 0. Each iteration re-prices every rule
// bottom-up — the rule's output estimate is the frame count of a
// greedy left-deep join (the same ordering policy the engine's
// planBody uses) capped by the product of the head columns' distinct
// counts — and raises the head predicate's estimate to the maximum
// seen. Estimates only grow and are capped, so the loop converges; it
// mirrors how semi-naive evaluation grows relations to fixpoint.
//
// Probes. With cardinalities at their fixpoint, each rule is priced
// once more and the scan/probe work is summed: a body atom probed with
// fanout f under F live frames contributes F·(1+f) probes. This
// approximates total semi-naive work because each derived tuple flows
// through every delta plan exactly once, which is what joining the
// full fixpoint relations once also counts.
//
// Selectivities. Join and filter factors come from the exact column
// indexes of the planned program's EDB relations, and from the
// uniformity fallback rows/distinct elsewhere. Residue checks inserted
// by the paper's transformation are priced like any other literal: a
// comparison against a constant costs its exact value frequency, a
// membership check costs a probe per frame — which is precisely how
// `opt` loses to `orig` when constraints are non-selective.
const (
	costMaxIters = 40
	costCardCap  = 1e15
)

// Estimate is the cost model's output for one program.
type Estimate struct {
	// Cost approximates the engine probe count to reach fixpoint.
	Cost float64
	// Cards is the estimated fixpoint cardinality per predicate.
	Cards map[string]float64
}

// EstimateCost prices a program over the database's statistics; the
// relations of the edb predicates price exactly. It never mutates db
// beyond building column indexes on those relations.
func EstimateCost(p *ast.Program, db *storage.Database, edb map[string]bool) Estimate {
	c := newCoster(p, db, edb)
	for it := 0; it < costMaxIters; it++ {
		changed := false
		out := map[string]float64{}
		for _, r := range p.Rules {
			o, _ := c.rule(r)
			out[r.Head.Pred] += o
		}
		for h, o := range out {
			o = math.Min(o, costCardCap)
			if o > c.cards[h]*1.001+0.5 {
				c.cards[h] = o
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	total := 0.0
	for _, r := range p.Rules {
		_, cost := c.rule(r)
		total += cost
	}
	return Estimate{Cost: total, Cards: c.cards}
}

// prov records where a bound variable came from: the binding column's
// distinct count, plus the relation when the binder was an EDB atom
// (filters on that variable then read exact frequencies).
type prov struct {
	distinct float64
	rel      *storage.Relation
	col      int
}

type coster struct {
	db     *storage.Database
	edb    map[string]bool // predicates whose relations price exactly
	cards  map[string]float64
	arity  map[string]int
	domain float64 // global distinct-constant estimate, the cap fallback; 0 until first used
}

func newCoster(p *ast.Program, db *storage.Database, edb map[string]bool) *coster {
	c := &coster{db: db, edb: edb, cards: map[string]float64{}, arity: map[string]int{}}
	for _, pred := range db.Preds() {
		rel := db.Relation(pred)
		c.cards[pred] = float64(rel.Len())
		c.arity[pred] = rel.Arity
	}
	for _, r := range p.Rules {
		c.arity[r.Head.Pred] = len(r.Head.Args)
	}
	return c
}

// exact returns pred's relation when it prices exactly: an EDB
// predicate the database holds. Otherwise nil.
func (c *coster) exact(pred string) *storage.Relation {
	if c.edb[pred] {
		return c.db.Relation(pred)
	}
	return nil
}

// domainSize is the largest distinct count of any EDB column, at
// least 2. Only a head variable no body atom binds needs it, so it is
// computed on first use instead of indexing every column up front.
func (c *coster) domainSize() float64 {
	if c.domain == 0 {
		c.domain = 2
		for pred := range c.edb {
			if rel := c.db.Relation(pred); rel != nil {
				for i := 0; i < rel.Arity; i++ {
					c.domain = math.Max(c.domain, float64(len(rel.EnsureIndex(i))))
				}
			}
		}
	}
	return c.domain
}

// distinct estimates the distinct-value count of pred's column col:
// exact from the column index, otherwise the uniform guess
// rows^(1/arity) (a relation of N tuples over k columns touches about
// N^(1/k) distinct values per column when tuples spread evenly).
func (c *coster) distinct(pred string, col int) float64 {
	if rel := c.exact(pred); rel != nil {
		return math.Max(1, float64(len(rel.EnsureIndex(col))))
	}
	rows := c.cards[pred]
	if rows <= 1 {
		return 1
	}
	ar := c.arity[pred]
	if ar <= 1 {
		return rows
	}
	return math.Max(1, math.Pow(rows, 1/float64(ar)))
}

// constSel estimates the fraction of pred's rows whose column col
// holds the constant t: exact from the column index, else the
// uniformity fallback.
func (c *coster) constSel(pred string, col int, t ast.Term) float64 {
	if rel := c.exact(pred); rel != nil {
		return rel.Selectivity(col, t)
	}
	return 1 / math.Max(2, c.distinct(pred, col))
}

// fanout estimates the matches one frame finds in atom a given the
// bound variables: rows scaled by a factor per bound column — exact
// frequency for constants, 1/max(d_col, d_source) for join columns
// (uniformity plus containment: the probe value ranges over the
// larger of the two distinct sets).
func (c *coster) fanout(a ast.Atom, bound map[ast.Var]prov) float64 {
	rows := c.cards[a.Pred]
	if rows <= 0 {
		return 0
	}
	f := rows
	seen := map[ast.Var]bool{}
	for i, t := range a.Args {
		if v, ok := t.(ast.Var); ok {
			if pr, b := bound[v]; b {
				d := math.Max(c.distinct(a.Pred, i), 1)
				f /= math.Max(d, math.Max(pr.distinct, 1))
			} else if seen[v] {
				f /= math.Max(2, c.distinct(a.Pred, i))
			} else {
				seen[v] = true
			}
			continue
		}
		f *= c.constSel(a.Pred, i, t)
	}
	return f
}

// filterFactor estimates the surviving fraction of frames after an
// evaluable literal. Equality against a constant reads the bound
// variable's source column frequency — the exact E1 signal: pricing
// `R = executive` at the frequency of executive ranks is what flips
// the orig/opt decision with the constraint's selectivity.
func (c *coster) filterFactor(l ast.Literal, bound map[ast.Var]prov) float64 {
	op := l.Atom.Pred
	if l.Neg {
		op = ast.NegateOp(op)
	}
	sel := -1.0
	if len(l.Atom.Args) == 2 {
		x, y := l.Atom.Args[0], l.Atom.Args[1]
		if _, ok := x.(ast.Var); !ok {
			x, y = y, x // normalize: variable (if any) first
		}
		if v, ok := x.(ast.Var); ok {
			if _, yVar := y.(ast.Var); !yVar {
				if pr, b := bound[v]; b {
					if pr.rel != nil {
						sel = pr.rel.Selectivity(pr.col, y)
					} else {
						sel = 1 / math.Max(2, pr.distinct)
					}
				}
			} else if pv, vb := bound[v], bound[y.(ast.Var)]; true {
				sel = 1 / math.Max(2, math.Max(pv.distinct, vb.distinct))
			}
		}
	}
	switch op {
	case ast.OpEq:
		if sel >= 0 {
			return clamp01(sel)
		}
		return 0.1
	case ast.OpNe:
		if sel >= 0 {
			return clamp01(1 - sel)
		}
		return 0.9
	default: // <, <=, >, >=: the standard range guess
		return 1.0 / 3
	}
}

func clamp01(x float64) float64 { return math.Min(1, math.Max(0, x)) }

// rule prices one rule: the greedy left-deep join over its positive
// database atoms (lowest estimated fanout next, evaluable and negated
// literals flushed as soon as their variables bind — the engine's
// planBody policy) and returns the output-cardinality estimate capped
// by the head columns' distinct counts, plus the probe cost.
func (c *coster) rule(r ast.Rule) (out, cost float64) {
	if r.IsFact() {
		return 1, 0
	}
	var atoms, filters []ast.Literal
	for _, l := range r.Body {
		if l.Atom.IsEvaluable() || l.Neg {
			filters = append(filters, l)
		} else {
			atoms = append(atoms, l)
		}
	}
	bound := map[ast.Var]prov{}
	applied := make([]bool, len(filters))
	used := make([]bool, len(atoms))
	frames := 1.0
	flush := func() {
		for i, f := range filters {
			if applied[i] || !literalBound(f, bound) {
				continue
			}
			applied[i] = true
			if f.Atom.IsEvaluable() {
				frames *= c.filterFactor(f, bound)
			} else {
				// Negated database literal: one membership probe per
				// frame, then the coin-flip survival guess.
				cost += frames
				frames *= 0.5
			}
		}
	}
	for range atoms {
		flush()
		best, bestF := -1, math.Inf(1)
		for i, l := range atoms {
			if used[i] {
				continue
			}
			if f := c.fanout(l.Atom, bound); f < bestF {
				best, bestF = i, f
			}
		}
		a := atoms[best].Atom
		used[best] = true
		cost += frames * (1 + bestF)
		frames *= bestF
		for i, t := range a.Args {
			if v, ok := t.(ast.Var); ok {
				if _, b := bound[v]; !b {
					bound[v] = prov{distinct: c.distinct(a.Pred, i), rel: c.exact(a.Pred), col: i}
				}
			}
		}
	}
	flush()

	headCap := 1.0
	for _, t := range r.Head.Args {
		if v, ok := t.(ast.Var); ok {
			if pr, b := bound[v]; b {
				headCap *= math.Max(1, pr.distinct)
			} else {
				headCap *= c.domainSize()
			}
		}
	}
	return math.Min(frames, headCap), cost
}

// literalBound reports whether every variable of l is bound.
func literalBound(l ast.Literal, bound map[ast.Var]prov) bool {
	for _, t := range l.Atom.Args {
		if v, ok := t.(ast.Var); ok {
			if _, b := bound[v]; !b {
				return false
			}
		}
	}
	return true
}

// Cost model: the one estimator shared by the engine's per-rule join
// decisions (body ordering, GJ-vs-binary under JoinAuto) and the
// cost-based rewrite planner (internal/planner). Both read the same
// statistics: a relation's row count and its column hash indexes,
// which storage keeps exact through every insert and removal — an
// index's key count is the column's distinct count, a value's position
// list its frequency.
package eval

import (
	"repro/internal/ast"
	"repro/internal/storage"
)

// CostModel supplies cardinality and selectivity estimates to the
// engine. Every method reports ok=false when it has no information,
// in which case the engine falls back to its index-derived estimate.
// The engine asks only about its program's EDB predicates: the
// relations it derives are still growing when it plans.
type CostModel interface {
	// Rows estimates the cardinality of pred.
	Rows(pred string) (float64, bool)
	// Selectivity estimates the fraction of pred's tuples whose column
	// col equals the constant term t.
	Selectivity(pred string, col int, t ast.Term) (float64, bool)
}

// SetCostModel installs (or clears, with nil) the estimator consulted
// by body ordering and the JoinAuto GJ-vs-binary decision. Call before
// Run; the model is read at plan time only.
func (e *Engine) SetCostModel(cm CostModel) { e.cost = cm }

// costOf returns the cost model to consult for pred: nil when none is
// installed or pred is one the program derives.
func (e *Engine) costOf(pred string) CostModel {
	if _, derived := e.arity[pred]; derived {
		return nil
	}
	return e.cost
}

// StatsCostModel answers from a storage database's relations: rows
// from their length, a constant's frequency from its column index
// (built on first use). A relation the database lacks is unknown.
type StatsCostModel struct {
	DB *storage.Database
}

// Rows implements CostModel.
func (m StatsCostModel) Rows(pred string) (float64, bool) {
	if rel := m.DB.Relation(pred); rel != nil {
		return float64(rel.Len()), true
	}
	return 0, false
}

// Selectivity implements CostModel.
func (m StatsCostModel) Selectivity(pred string, col int, t ast.Term) (float64, bool) {
	if rel := m.DB.Relation(pred); rel != nil {
		return rel.Selectivity(col, t), true
	}
	return 0, false
}

// gjMinRows is the smallest relation size at which Generic Join's
// per-level seek overhead can beat binary index joins on a cyclic body.
// Below it the intermediate results binary joins materialize are tiny
// anyway, so JoinAuto keeps the cheaper binary plan when a cost model
// can price the body.
const gjMinRows = 32

// gjPaysOff prices a cyclic body under the cost model: Generic Join is
// kept unless every body relation is estimated below gjMinRows rows.
// Atoms the model cannot price count as large (preserving the
// cost-model-free behavior of routing every cyclic body through GJ).
func (e *Engine) gjPaysOff(c *compiled) bool {
	for _, op := range c.ops {
		if op.kind != stepScan || op.pred == "" {
			continue
		}
		cm := e.costOf(op.pred)
		if cm == nil {
			return true
		}
		if rows, ok := cm.Rows(op.pred); !ok || rows >= gjMinRows {
			return true
		}
	}
	return false
}

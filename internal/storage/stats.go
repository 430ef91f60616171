package storage

// RelStats is the per-relation statistics sketch the cost-based planner
// reads: the row count plus, per column, the exact multiplicity of every
// distinct value. Because tuples are vectors of interned uint32 Values,
// an exact per-column count map costs one small map entry per distinct
// value — cheap enough that the "sketch" can be exact, which makes every
// derived figure (distinct counts, selectivities, constant frequencies)
// error-free. The documented sketch error bound is therefore zero; all
// planner estimation error comes from the cost model's join-size
// assumptions, not from the statistics (DESIGN.md §16).
//
// Stats are opt-in per relation (EnsureStats) and maintained
// incrementally by Insert/Remove once enabled, so a long-running session
// pays O(arity) map updates per committed tuple instead of periodic
// rescans. Like the column indexes, stats have no internal locking:
// they are mutated only on the write path, which the service serializes
// under the session mutex, and snapshot views drop them entirely
// (snapshotRef) so concurrent readers can never observe a mutation.
type RelStats struct {
	rows int
	cols []map[Value]int
}

func newRelStats(arity int) *RelStats {
	s := &RelStats{cols: make([]map[Value]int, arity)}
	for i := range s.cols {
		s.cols[i] = make(map[Value]int)
	}
	return s
}

// add counts one inserted tuple. Callers guarantee t was actually new.
func (s *RelStats) add(t Tuple) {
	s.rows++
	for i, v := range t {
		s.cols[i][v]++
	}
}

// remove uncounts one removed tuple. Callers guarantee t was present.
func (s *RelStats) remove(t Tuple) {
	s.rows--
	for i, v := range t {
		if n := s.cols[i][v]; n <= 1 {
			delete(s.cols[i], v)
		} else {
			s.cols[i][v] = n - 1
		}
	}
}

// Rows returns the relation cardinality.
func (s *RelStats) Rows() int { return s.rows }

// Distinct returns the number of distinct values in column col. The
// count is exact (see the type comment for why no estimation error).
func (s *RelStats) Distinct(col int) int { return len(s.cols[col]) }

// Count returns how many tuples hold v in column col.
func (s *RelStats) Count(col int, v Value) int { return s.cols[col][v] }

// Selectivity returns the fraction of tuples holding v in column col,
// in [0, 1]; 0 on an empty relation.
func (s *RelStats) Selectivity(col int, v Value) float64 {
	if s.rows == 0 {
		return 0
	}
	return float64(s.cols[col][v]) / float64(s.rows)
}

// Equal reports whether two stats describe identical distributions.
// The property tests use it to compare incrementally maintained stats
// against a from-scratch rebuild.
func (s *RelStats) Equal(o *RelStats) bool {
	if s.rows != o.rows || len(s.cols) != len(o.cols) {
		return false
	}
	for i := range s.cols {
		if len(s.cols[i]) != len(o.cols[i]) {
			return false
		}
		for v, n := range s.cols[i] {
			if o.cols[i][v] != n {
				return false
			}
		}
	}
	return true
}

// EnsureStats builds (if needed) and returns the relation's statistics.
// Once built, Insert and Remove keep them current. Like EnsureIndex it
// mutates the relation and must not race concurrent readers; building
// on a copy-on-write relation is safe without detaching because the
// stats pointer is never shared with a snapshot view (snapshotRef
// leaves the view's stats nil).
func (r *Relation) EnsureStats() *RelStats {
	if r.stats == nil {
		s := newRelStats(r.Arity)
		for pos := 0; pos < r.n; pos++ {
			s.add(r.At(pos))
		}
		r.stats = s
	}
	return r.stats
}

// Stats returns the relation's statistics, or nil when EnsureStats has
// not been called. Read-only.
func (r *Relation) Stats() *RelStats { return r.stats }

// EnsureStats enables statistics maintenance on the relations of the
// given predicates (every relation present when preds is nil) and
// returns the database for chaining. The service calls it for the EDB
// predicates at load time; commits then keep the stats current through
// the Insert/Remove hooks.
func (db *Database) EnsureStats(preds ...string) *Database {
	if len(preds) == 0 {
		for _, r := range db.rels {
			r.EnsureStats()
		}
		return db
	}
	for _, p := range preds {
		if r := db.rels[p]; r != nil {
			r.EnsureStats()
		}
	}
	return db
}

// StatsOf returns the statistics for pred, or nil when the relation is
// absent or stats were never enabled on it.
func (db *Database) StatsOf(pred string) *RelStats {
	if r := db.rels[pred]; r != nil {
		return r.stats
	}
	return nil
}

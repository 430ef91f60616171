package storage

// This file adds the weighted (Z-set) delta representation that the
// Z-set maintenance path of internal/eval and the /v1 change-feed are
// built on. A ZSet is a finite map from tuples to non-zero signed
// multiplicities: an insertion carries weight +1, a deletion weight −1,
// and consolidation cancels opposing weights eagerly so a ZSet is
// always in normal form (no zero-weight entries). The flat set-valued
// Relations stay the authoritative store — a ZSet describes a *change*
// between two relation states, which is why it lives alongside, not
// instead of, the interned-Value tables.

// zsetEntry is one consolidated (tuple, weight) pair.
type zsetEntry struct {
	t Tuple
	w int64
}

// ZSet is a weighted tuple collection keyed by tuple value. The zero
// value is not usable; call NewZSet.
type ZSet struct {
	entries []zsetEntry
	pos     map[string]int // Tuple.Key() -> index into entries; -1 = tombstone
	dead    int            // tombstoned entries, compacted lazily
}

// NewZSet returns an empty Z-set.
func NewZSet() *ZSet {
	return &ZSet{pos: make(map[string]int)}
}

// Add accumulates weight w onto t and returns the consolidated weight.
// Entries that reach weight 0 are removed (Z-sets are zero-almost-
// everywhere, and this keeps Len and Entries exact).
func (z *ZSet) Add(t Tuple, w int64) int64 {
	if w == 0 {
		return z.Weight(t)
	}
	k := t.Key()
	if i, ok := z.pos[k]; ok && i >= 0 {
		e := &z.entries[i]
		e.w += w
		if e.w == 0 {
			z.pos[k] = -1
			z.dead++
			e.t = nil
			return 0
		}
		return e.w
	}
	z.pos[k] = len(z.entries)
	z.entries = append(z.entries, zsetEntry{t: t, w: w})
	return w
}

// Weight returns the consolidated weight of t (0 when absent).
func (z *ZSet) Weight(t Tuple) int64 {
	if i, ok := z.pos[t.Key()]; ok && i >= 0 {
		return z.entries[i].w
	}
	return 0
}

// Len counts tuples with non-zero weight.
func (z *ZSet) Len() int { return len(z.entries) - z.dead }

// Each calls fn for every tuple with non-zero weight, in first-insertion
// order. fn must not mutate the Z-set.
func (z *ZSet) Each(fn func(t Tuple, w int64)) {
	for i := range z.entries {
		if e := &z.entries[i]; e.t != nil {
			fn(e.t, e.w)
		}
	}
}

// Split partitions the Z-set into its positive part (tuples, each
// listed once regardless of magnitude) and negative part. The two
// slices are freshly allocated.
func (z *ZSet) Split() (adds, dels []Tuple) {
	z.Each(func(t Tuple, w int64) {
		if w > 0 {
			adds = append(adds, t)
		} else {
			dels = append(dels, t)
		}
	})
	return adds, dels
}

// ZSetOfChanges builds a ±1-weighted Z-set from plain add/delete tuple
// slices: the batch vocabulary the commit pipeline speaks. Opposing
// entries cancel, duplicate adds (or deletes) of the same tuple
// consolidate to a single ±1 — batch inputs are set-valued changes, so
// weights are clamped to {−1, 0, +1}.
func ZSetOfChanges(adds, dels []Tuple) *ZSet {
	z := NewZSet()
	for _, t := range adds {
		if z.Weight(t) <= 0 {
			z.Add(t, 1)
		}
	}
	for _, t := range dels {
		if z.Weight(t) >= 0 {
			z.Add(t, -1)
		}
	}
	return z
}

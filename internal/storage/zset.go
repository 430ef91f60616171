package storage

// This file adds the weighted (Z-set) delta representation that the
// Z-set maintenance path of internal/eval and the /v1 change-feed are
// built on. A ZSet is a finite map from tuples to non-zero signed
// multiplicities: an insertion carries weight +1, a deletion weight −1,
// and consolidation cancels opposing weights eagerly, so Len and Each
// only ever see non-zero entries. The set-valued Relations stay the
// authoritative store — a ZSet describes a *change* between two
// relation states, which is why it lives alongside them. It is the same
// flat core as a Relation plus an aligned int64 weight column.

// ZSet is a weighted tuple collection keyed by tuple value. The zero
// value is an empty Z-set.
type ZSet struct {
	// set holds every tuple ever weighted, in first-insertion order; its
	// membership table indexes only the live (non-zero) ones, so a
	// tuple that cancels and comes back is appended anew.
	set  flat
	w    []int64 // aligned with set; 0 marks a cancelled entry
	dead int     // cancelled entries
}

// NewZSet returns an empty Z-set.
func NewZSet() *ZSet { return &ZSet{} }

// Add accumulates weight w onto t (copying t in) and returns the
// consolidated weight. Entries that reach weight 0 drop out of Len and
// Each (Z-sets are zero-almost-everywhere).
func (z *ZSet) Add(t Tuple, w int64) int64 {
	if w == 0 {
		return z.Weight(t)
	}
	h := t.Hash()
	if pos := z.set.find(t, h); pos >= 0 {
		z.w[pos] += w
		if z.w[pos] == 0 {
			z.set.index.dropPos(h, pos)
			z.dead++
		}
		return z.w[pos]
	}
	z.set.push(t, h)
	z.w = append(z.w, w)
	return w
}

// Weight returns the consolidated weight of t (0 when absent).
func (z *ZSet) Weight(t Tuple) int64 {
	if pos := z.set.find(t, t.Hash()); pos >= 0 {
		return z.w[pos]
	}
	return 0
}

// Len counts tuples with non-zero weight.
func (z *ZSet) Len() int { return z.set.n - z.dead }

// Each calls fn for every tuple with non-zero weight, in first-insertion
// order. fn must not mutate the Z-set; the tuples are At views of it.
func (z *ZSet) Each(fn func(t Tuple, w int64)) {
	for pos, w := range z.w {
		if w != 0 {
			fn(z.set.At(pos), w)
		}
	}
}

// Split partitions the Z-set into its positive part (tuples, each
// listed once regardless of magnitude) and negative part. The two
// slices are freshly allocated; the tuples are views of the Z-set.
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

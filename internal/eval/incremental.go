package eval

import "errors"

// Live maintenance has one algorithm: the Z-set sweep
// (ApplyZSetContext, zset.go), which is total. Its reference is
// from-scratch evaluation of the program over the updated EDB, which is
// also what the service rebuilds from when a commit's maintenance fails.

// ErrNeedsRecompute is returned by nothing. It survives only because
// the benchmark module's replay (benchmark/replay.go) still has a branch
// for it; step (0) of ROADMAP.md's re-baseline item removes both that
// branch and this declaration.
var ErrNeedsRecompute = errors.New("eval: update reaches a negated predicate; full recomputation required")

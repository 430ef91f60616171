package eval

import (
	"errors"

	"repro/internal/storage"
)

// Live maintenance has one algorithm: the Z-set sweep
// (ApplyZSetContext, zset.go), which is total. Its reference is
// from-scratch evaluation of the program over the updated EDB, which is
// also what the service rebuilds from when a commit's maintenance fails.
// Its rank certificate is the relations' rank columns alone: Run writes
// them and the sweep maintains them.

// The declarations below do nothing. They survive only because the
// benchmark module's replay (benchmark/replay.go) still compiles
// against them: it has a branch for ErrNeedsRecompute, wires a ZState
// through SetRankSink, Record and Export, and passes it to
// ApplyZSetContext. Step (0) of ROADMAP.md's re-baseline item removes
// those uses and these declarations together.

// ErrNeedsRecompute is returned by nothing.
var ErrNeedsRecompute = errors.New("eval: update reaches a negated predicate; full recomputation required")

// ZState carries nothing: ranks live in the relations' rank columns.
type ZState struct{}

// NewZState returns an empty ZState.
func NewZState() *ZState { return &ZState{} }

// Record does nothing; Run ranks what it derives.
func (*ZState) Record(*storage.Relation, int, int) {}

// Export returns nil; a checkpoint's ranks are its relations' rank
// columns.
func (*ZState) Export() map[string][]storage.RankedTuple { return nil }

// SetRankSink does nothing; Run ranks what it derives.
func (*Engine) SetRankSink(func(rel *storage.Relation, pos int, layer int)) {}

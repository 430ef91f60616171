package storage

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/ast"
)

// This file implements the global constant interner: every ground term
// (symbolic constant or integer) the system ever stores is mapped to a
// dense uint32 Value at ingest time, so tuples are fixed-width integer
// vectors everywhere past the parser. Tuple hashing collapses to one
// multiply-xor per column (instead of FNV-1a over the symbol's bytes),
// equality to word compares, and the sorted columnar indexes used by
// the Generic Join path can order values by their numeric IDs — a total
// order that is consistent across all relations because the interner is
// process-global. Strings reappear only at the boundaries: printing,
// the HTTP API, and the durable on-disk encoding (kind-tagged term
// bytes: per value in a WAL frame, once per distinct constant in a
// checkpoint's dictionary).

// Value is an interned ground term: a dense ID into the process-global
// term table. The zero Value is reserved as "no value" (an unbound
// frame slot); real terms start at 1.
type Value uint32

// NoValue is the reserved zero Value. It is never returned by Intern.
const NoValue Value = 0

// interner maps ground terms to dense IDs and back. Interning takes a
// lock; resolving a Value back to its term is lock-free — the term
// table is published through an atomic pointer, and any goroutine that
// legitimately holds a Value acquired it after the table containing it
// was published.
type interner struct {
	mu    sync.RWMutex
	syms  map[string]Value
	ints  map[int64]Value
	terms atomic.Pointer[[]ast.Term] // index v-1 holds the term of Value v
	slab  []ast.Term                 // append buffer; published after every insert
}

var global = func() *interner {
	in := &interner{syms: make(map[string]Value), ints: make(map[int64]Value)}
	empty := []ast.Term{}
	in.terms.Store(&empty)
	return in
}()

// InternSym returns the Value of the symbolic constant s, assigning a
// fresh ID on first sight. The table keeps a copy of s, so s may be a
// substring of a larger text (the parser passes slices of its source).
func InternSym(s string) Value {
	global.mu.RLock()
	v, ok := global.syms[s]
	global.mu.RUnlock()
	if ok {
		return v
	}
	global.mu.Lock()
	defer global.mu.Unlock()
	if v, ok := global.syms[s]; ok {
		return v
	}
	s = strings.Clone(s)
	v = global.push(ast.Sym(s))
	global.syms[s] = v
	return v
}

// InternInt returns the Value of the integer constant i, assigning a
// fresh ID on first sight.
func InternInt(i int64) Value {
	global.mu.RLock()
	v, ok := global.ints[i]
	global.mu.RUnlock()
	if ok {
		return v
	}
	global.mu.Lock()
	defer global.mu.Unlock()
	if v, ok := global.ints[i]; ok {
		return v
	}
	v = global.push(ast.Int(i))
	global.ints[i] = v
	return v
}

// push appends t to the term table and publishes the grown table.
// Callers hold mu. Publishing a fresh slice header after every append
// keeps concurrent Term calls safe: readers index an immutable prefix
// of the backing array through the header they loaded.
func (in *interner) push(t ast.Term) Value {
	in.slab = append(in.slab, t)
	view := in.slab
	in.terms.Store(&view)
	id := len(in.slab)
	if id > int(^uint32(0)) {
		panic("storage: interner overflow: more than 2^32-1 distinct constants")
	}
	return Value(id)
}

// Interned returns how many constants have been interned, so every
// Value issued so far lies in [1, Interned()].
func Interned() int { return len(*global.terms.Load()) }

// Intern maps any ground term to its Value.
func Intern(t ast.Term) Value {
	switch x := t.(type) {
	case ast.Sym:
		return InternSym(string(x))
	case ast.Int:
		return InternInt(int64(x))
	default:
		panic(fmt.Sprintf("storage: cannot intern non-ground term %v", t))
	}
}

// LookupTerm returns the Value of t if it has ever been interned, and
// ok=false otherwise — without growing the table. Query paths use it so
// adversarial goals with never-seen constants cannot expand the
// interner (a goal constant the table has never seen cannot match any
// stored tuple anyway).
func LookupTerm(t ast.Term) (Value, bool) {
	switch x := t.(type) {
	case ast.Sym:
		global.mu.RLock()
		v, ok := global.syms[string(x)]
		global.mu.RUnlock()
		return v, ok
	case ast.Int:
		global.mu.RLock()
		v, ok := global.ints[int64(x)]
		global.mu.RUnlock()
		return v, ok
	default:
		return NoValue, false
	}
}

// Goal is a query goal lowered to value space once, the one matcher
// every query path filters rows with: a column the goal gives as a
// constant must equal it, and a column repeating an earlier variable
// must equal that earlier column.
type Goal struct {
	Consts Tuple    // per column: the constant it must equal, NoValue if none
	Bound  int      // columns given as constants
	Known  bool     // false: some constant was never interned, so nothing matches
	peers  [][2]int // per repeated variable: its column and its first one
}

// LowerGoal lowers a goal's arguments. Like LookupTerm, it never grows
// the interner.
func LowerGoal(args []ast.Term) Goal {
	g := Goal{Consts: make(Tuple, len(args)), Known: true}
	for i, a := range args {
		if _, ok := a.(ast.Var); !ok {
			c, ok := LookupTerm(a)
			g.Consts[i], g.Known, g.Bound = c, g.Known && ok, g.Bound+1
		} else if j := slices.Index(args[:i], a); j >= 0 {
			g.peers = append(g.peers, [2]int{i, j})
		}
	}
	return g
}

// FirstBound returns the first column given as a constant, -1 if none.
func (g *Goal) FirstBound() int {
	return slices.IndexFunc(g.Consts, func(v Value) bool { return v != NoValue })
}

// Repeats reports whether some variable occurs more than once.
func (g *Goal) Repeats() bool { return len(g.peers) > 0 }

// Match reports whether t satisfies the goal's constants and repeated
// variables.
func (g *Goal) Match(t Tuple) bool {
	for i, c := range g.Consts {
		if c != NoValue && t[i] != c {
			return false
		}
	}
	for _, p := range g.peers {
		if t[p[0]] != t[p[1]] {
			return false
		}
	}
	return true
}

// Term resolves the Value back to its term. Lock-free: safe from any
// goroutine concurrently with interning.
func (v Value) Term() ast.Term {
	if v == NoValue {
		panic("storage: NoValue has no term")
	}
	table := *global.terms.Load()
	return table[v-1]
}

// String renders the value's term in source syntax.
func (v Value) String() string {
	if v == NoValue {
		return "<no value>"
	}
	return v.Term().String()
}

// CompareValues orders two Values by their terms' total order
// (ast.CompareTerms: Int < Sym, then by value) — the order used for
// deterministic printing. The Generic Join path orders by the numeric
// Value instead; both are total, only this one survives process
// restarts.
func CompareValues(a, b Value) int {
	if a == b {
		return 0
	}
	return ast.CompareTerms(a.Term(), b.Term())
}

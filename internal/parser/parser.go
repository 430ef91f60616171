package parser

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/ast"
	"repro/internal/storage"
)

// Result holds everything a source text can declare: rules (including
// facts) and integrity constraints.
type Result struct {
	Program *ast.Program
	ICs     []ast.IC
}

// Parse parses a complete source text. Facts come back as body-less
// rules, labelled like the rules: statement i that is a rule or a fact
// gets "r<i>".
func Parse(src string) (*Result, error) {
	p := &parser{lx: newLexer(src)}
	return p.program()
}

// ParseInto parses a complete source text whose facts go into db, and
// returns only its rules and integrity constraints. Each fact is read
// as tokens and interned straight into its relation, in source order;
// no term, atom or rule is built for it. The rules carry the labels
// Parse gives them, facts counted. A fact with a variable, or whose
// arity differs from its relation's, is a positioned error; the facts
// before an error stay in db.
func ParseInto(src string, db *storage.Database) (*Result, error) {
	p := &parser{lx: newLexer(src), db: db}
	return p.program()
}

// ParseProgram parses a source text that must contain only rules/facts.
func ParseProgram(src string) (*ast.Program, error) {
	res, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(res.ICs) > 0 {
		return nil, fmt.Errorf("unexpected integrity constraint %s in program text", res.ICs[0])
	}
	return res.Program, nil
}

// ParseRule parses a single rule or fact.
func ParseRule(src string) (ast.Rule, error) {
	p, err := ParseProgram(src)
	if err != nil {
		return ast.Rule{}, err
	}
	if len(p.Rules) != 1 {
		return ast.Rule{}, fmt.Errorf("expected exactly one rule, found %d", len(p.Rules))
	}
	return p.Rules[0], nil
}

// ParseIC parses a single integrity constraint.
func ParseIC(src string) (ast.IC, error) {
	res, err := Parse(src)
	if err != nil {
		return ast.IC{}, err
	}
	if len(res.ICs) != 1 || len(res.Program.Rules) != 0 {
		return ast.IC{}, fmt.Errorf("expected exactly one integrity constraint")
	}
	return res.ICs[0], nil
}

// ParseAtom parses a single atom such as "p(X, a)".
func ParseAtom(src string) (ast.Atom, error) {
	p := &parser{lx: newLexer(src)}
	if err := p.advance(); err != nil {
		return ast.Atom{}, err
	}
	lit, err := p.literal()
	if err != nil {
		return ast.Atom{}, err
	}
	if lit.Neg {
		return ast.Atom{}, fmt.Errorf("unexpected negation in atom")
	}
	if p.cur.kind != tokEOF {
		return ast.Atom{}, fmt.Errorf("trailing input after atom")
	}
	return lit.Atom, nil
}

type parser struct {
	lx  lexer
	cur token
	res *Result
	// stmts counts the rules and facts read so far.
	stmts int

	// pred and args hold the last database atom read, as tokens; args
	// is reused from atom to atom.
	pred token
	args []arg

	// db receives the facts when set; otherwise they are returned as
	// rules. rel and tup are the last fact's relation and a reused
	// tuple. syms memoizes the facts' symbols, so each distinct symbol
	// goes to the process-wide interner, and takes its lock, once.
	db   *storage.Database
	rel  *storage.Relation
	tup  storage.Tuple
	syms map[string]storage.Value
	// kept holds private copies of the strings rules and ICs keep when
	// facts go into db: a load's text is mostly facts, and a rule's
	// names must not pin it once the parse is over.
	kept map[string]string
}

// keep returns the string a rule or IC may hold for token text s.
func (p *parser) keep(s string) string {
	if p.db == nil {
		return s
	}
	c, ok := p.kept[s]
	if !ok {
		if p.kept == nil {
			p.kept = map[string]string{}
		}
		c = strings.Clone(s)
		p.kept[c] = c
	}
	return c
}

// arg is one argument of an atom: a variable, symbol or integer token.
type arg struct {
	tok token
	n   int64 // an integer's value
}

func (p *parser) argTerm(a arg) ast.Term {
	switch a.tok.kind {
	case tokVar:
		return ast.Var(p.keep(a.tok.text))
	case tokInt:
		return ast.Int(a.n)
	}
	return ast.Sym(p.keep(a.tok.text))
}

func (p *parser) program() (*Result, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	p.res = &Result{Program: &ast.Program{}}
	for p.cur.kind != tokEOF {
		if err := p.statement(); err != nil {
			return nil, err
		}
	}
	return p.res, nil
}

func (p *parser) advance() error {
	t, err := p.lx.next()
	if err != nil {
		return err
	}
	p.cur = t
	return nil
}

func (p *parser) expect(k tokenKind) (token, error) {
	if p.cur.kind != k {
		return token{}, fmt.Errorf("%d:%d: expected %s, found %s %q",
			p.cur.line, p.cur.col, k, p.cur.kind, p.cur.text)
	}
	t := p.cur
	if err := p.advance(); err != nil {
		return token{}, err
	}
	return t, nil
}

// label names the next rule or fact.
func (p *parser) label() string {
	p.stmts++
	return "r" + strconv.Itoa(p.stmts-1)
}

// statement parses one rule, fact, or IC into p.res (a fact into p.db
// when it is set).
func (p *parser) statement() error {
	var first ast.Literal
	isAtom := false
	if p.cur.kind == tokIdent {
		var err error
		if isAtom, err = p.atom(); err != nil {
			return err
		}
		if isAtom {
			if p.cur.kind == tokPeriod && !ast.IsEvaluablePred(p.pred.text) {
				return p.fact() // the common case: no literal is built
			}
			first = ast.Pos(p.atomTerms())
		}
	}
	if !isAtom {
		lit, err := p.literal()
		if err != nil {
			return err
		}
		first = lit
	}
	switch p.cur.kind {
	case tokIf: // rule: first is the head
		if first.Neg || first.Atom.IsEvaluable() {
			return fmt.Errorf("%d:%d: rule head must be a database atom", p.cur.line, p.cur.col)
		}
		if err := p.advance(); err != nil {
			return err
		}
		body, err := p.body()
		if err != nil {
			return err
		}
		if _, err := p.expect(tokPeriod); err != nil {
			return err
		}
		p.res.Program.Rules = append(p.res.Program.Rules, ast.Rule{Head: first.Atom, Body: body, Label: p.label()})
		return nil
	case tokPeriod: // fact
		if first.Neg || first.Atom.IsEvaluable() {
			return fmt.Errorf("fact must be a database atom, found %s", first)
		}
		return p.fact() // first is the last atom read, parenthesized
	case tokComma, tokImplies: // integrity constraint
		body := []ast.Literal{first}
		for p.cur.kind == tokComma {
			if err := p.advance(); err != nil {
				return err
			}
			lit, err := p.literal()
			if err != nil {
				return err
			}
			body = append(body, lit)
		}
		if _, err := p.expect(tokImplies); err != nil {
			return err
		}
		ic := ast.IC{Body: body}
		if p.cur.kind != tokPeriod {
			head, err := p.literal()
			if err != nil {
				return err
			}
			if head.Neg {
				return fmt.Errorf("constraint head cannot be negated")
			}
			ic.Head = &head.Atom
		}
		if _, err := p.expect(tokPeriod); err != nil {
			return err
		}
		ic.Label = fmt.Sprintf("ic%d", len(p.res.ICs))
		p.res.ICs = append(p.res.ICs, ic)
		return nil
	}
	return fmt.Errorf("%d:%d: expected ':-', '->', ',' or '.' after %s, found %s %q",
		p.cur.line, p.cur.col, first, p.cur.kind, p.cur.text)
}

// body parses a comma-separated conjunction of literals.
func (p *parser) body() ([]ast.Literal, error) {
	var out []ast.Literal
	for {
		lit, err := p.literal()
		if err != nil {
			return nil, err
		}
		out = append(out, lit)
		if p.cur.kind != tokComma {
			return out, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
}

// literal parses "not atom", a database atom, or an infix comparison.
// Parenthesized comparisons such as (M > 10000) are also accepted, as
// used in the paper.
func (p *parser) literal() (ast.Literal, error) {
	if p.cur.kind == tokNot {
		if err := p.advance(); err != nil {
			return ast.Literal{}, err
		}
		inner, err := p.literal()
		if err != nil {
			return ast.Literal{}, err
		}
		if inner.Neg {
			return ast.Literal{}, fmt.Errorf("double negation is not supported")
		}
		return ast.Neg(inner.Atom), nil
	}
	if p.cur.kind == tokLParen {
		if err := p.advance(); err != nil {
			return ast.Literal{}, err
		}
		inner, err := p.literal()
		if err != nil {
			return ast.Literal{}, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return ast.Literal{}, err
		}
		return inner, nil
	}
	// An atom starts with an identifier followed by '('; otherwise we
	// are looking at "term op term".
	if p.cur.kind == tokIdent {
		isAtom, err := p.atom()
		if err != nil {
			return ast.Literal{}, err
		}
		if isAtom {
			return ast.Pos(p.atomTerms()), nil
		}
	}
	left, err := p.term()
	if err != nil {
		return ast.Literal{}, err
	}
	op, err := p.expect(tokOp)
	if err != nil {
		return ast.Literal{}, err
	}
	right, err := p.term()
	if err != nil {
		return ast.Literal{}, err
	}
	return ast.Pos(ast.Atom{Pred: p.keep(op.text), Args: []ast.Term{left, right}}), nil
}

// atom reads "pred(term, ...)" into p.pred and p.args when the
// current identifier is followed by '('. Otherwise it consumes nothing
// and reports false.
func (p *parser) atom() (bool, error) {
	pred, save := p.cur, p.lx
	if err := p.advance(); err != nil {
		return false, err
	}
	if p.cur.kind != tokLParen {
		// Not an application: rewind, so the caller reads the identifier
		// as a constant term in a comparison.
		p.lx, p.cur = save, pred
		return false, nil
	}
	p.pred, p.args = pred, p.args[:0]
	for {
		if err := p.advance(); err != nil { // past '(' or ','
			return false, err
		}
		a, err := p.arg()
		if err != nil {
			return false, err
		}
		p.args = append(p.args, a)
		if p.cur.kind != tokComma {
			break
		}
	}
	if _, err := p.expect(tokRParen); err != nil {
		return false, err
	}
	return true, nil
}

// atomTerms builds the last atom read.
func (p *parser) atomTerms() ast.Atom {
	args := make([]ast.Term, len(p.args))
	for i, a := range p.args {
		args[i] = p.argTerm(a)
	}
	return ast.Atom{Pred: p.keep(p.pred.text), Args: args}
}

// fact emits the last atom read as a fact; the current token is the
// period that ends it. Without a database the fact is returned as a
// rule; with one it is interned into its relation.
func (p *parser) fact() error {
	if p.db == nil {
		p.res.Program.Rules = append(p.res.Program.Rules, ast.Rule{Head: p.atomTerms(), Label: p.label()})
		return p.advance()
	}
	p.stmts++
	pred := p.pred
	for _, a := range p.args {
		if a.tok.kind == tokVar {
			return fmt.Errorf("%d:%d: fact %s has variables", pred.line, pred.col, p.atomTerms())
		}
	}
	if p.rel == nil || p.rel.Name != pred.text {
		if p.rel = p.db.Relation(pred.text); p.rel == nil {
			p.rel = p.db.Ensure(pred.text, len(p.args))
		}
	}
	if p.rel.Arity != len(p.args) {
		return fmt.Errorf("%d:%d: predicate %s used with arities %d and %d",
			pred.line, pred.col, pred.text, p.rel.Arity, len(p.args))
	}
	p.tup = p.tup[:0]
	for _, a := range p.args {
		if a.tok.kind == tokInt {
			p.tup = append(p.tup, storage.InternInt(a.n))
		} else {
			v, ok := p.syms[a.tok.text]
			if !ok {
				if p.syms == nil {
					p.syms = map[string]storage.Value{}
				}
				v = storage.InternSym(a.tok.text)
				p.syms[a.tok.text] = v
			}
			p.tup = append(p.tup, v)
		}
	}
	p.rel.Insert(p.tup)
	return p.advance()
}

// arg reads one term as a token.
func (p *parser) arg() (arg, error) {
	a := arg{tok: p.cur}
	switch p.cur.kind {
	case tokVar, tokIdent:
	case tokInt:
		n, err := strconv.ParseInt(p.cur.text, 10, 64)
		if err != nil {
			return a, fmt.Errorf("%d:%d: bad integer %q", p.cur.line, p.cur.col, p.cur.text)
		}
		a.n = n
	default:
		return a, fmt.Errorf("%d:%d: expected term, found %s %q",
			p.cur.line, p.cur.col, p.cur.kind, p.cur.text)
	}
	return a, p.advance()
}

func (p *parser) term() (ast.Term, error) {
	a, err := p.arg()
	if err != nil {
		return nil, err
	}
	return p.argTerm(a), nil
}

package sdgraph

import (
	"strings"
	"testing"

	"repro/internal/ast"
)

func TestDOT(t *testing.T) {
	p := mustRect(t, evalSrc)
	g, err := Build(p, "eval", 3)
	if err != nil {
		t.Fatal(err)
	}
	dot := g.DOT()
	for _, want := range []string{
		"digraph sd_eval {",
		"works_with@r1",
		"expert@r1",
		"->",
		"dir=none", // a distance-0 edge exists (works_with and expert share X1)
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	if ast.DOTID("a-b.c") != "a_b_c" {
		t.Error("DOTID broken")
	}
	if ast.DOTLabel(`x"y`) != `x\"y` {
		t.Error("DOTLabel broken")
	}
}

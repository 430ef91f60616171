package sdgraph

import (
	"fmt"
	"strings"

	"repro/internal/ast"
)

// DOT renders the SD-graph in Graphviz dot syntax, for inspection of
// the §3 detection machinery (cmd/semopt exposes it via -show-graph).
// Occurrence nodes are labeled "pred@rule"; edges carry the expansion
// path and argument-position pairs, with same-rule (distance-0) edges
// drawn undirected (dir=none), matching Definition 3.2's reading.
func (g *Graph) DOT() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph sd_%s {\n", ast.DOTID(g.Pred))
	sb.WriteString("  rankdir=LR;\n  node [shape=box, fontsize=10];\n")
	for i, o := range g.Occs {
		fmt.Fprintf(&sb, "  n%d [label=\"%s@%s\\n%s\"];\n",
			i, o.Atom.Pred, o.RuleLabel, ast.DOTLabel(o.Atom.String()))
	}
	for _, e := range g.Edges {
		fi, ti := g.occIndex(e.From), g.occIndex(e.To)
		attrs := fmt.Sprintf("label=\"%s %v\"", e.pathKey(), e.Pairs)
		if len(e.Path) == 1 {
			attrs += ", dir=none, style=dashed"
		}
		fmt.Fprintf(&sb, "  n%d -> n%d [%s];\n", fi, ti, attrs)
	}
	sb.WriteString("}\n")
	return sb.String()
}

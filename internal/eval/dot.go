package eval

import (
	"fmt"
	"strings"

	"repro/internal/ast"
)

// DOT renders the derivation as a Graphviz proof tree (cmd/dlog
// exposes it via -explain-dot), following the same conventions as the
// SD-graph exporter: box nodes, left-to-right rank, escaped labels.
// Rule-derived nodes carry the rule label; EDB facts are drawn as
// leaves with a distinct style.
func (d *Derivation) DOT() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph proof_%s {\n", ast.DOTID(d.Atom.Pred))
	sb.WriteString("  rankdir=LR;\n  node [shape=box, fontsize=10];\n")
	n := 0
	d.dotNode(&sb, &n)
	sb.WriteString("}\n")
	return sb.String()
}

// dotNode emits the node for d and edges to its children, returning
// d's node index. *n is the next unused index (preorder numbering).
func (d *Derivation) dotNode(sb *strings.Builder, n *int) int {
	id := *n
	*n++
	label := ast.DOTLabel(d.Atom.String())
	if d.Rule != "" {
		fmt.Fprintf(sb, "  n%d [label=\"%s\\n[%s]\"];\n", id, label, ast.DOTLabel(d.Rule))
	} else {
		fmt.Fprintf(sb, "  n%d [label=\"%s\\n[fact]\", style=filled, fillcolor=lightgrey];\n", id, label)
	}
	for _, c := range d.Children {
		cid := c.dotNode(sb, n)
		fmt.Fprintf(sb, "  n%d -> n%d;\n", id, cid)
	}
	return id
}

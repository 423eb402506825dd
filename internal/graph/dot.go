package graph

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// WriteDOT emits the graph in Graphviz DOT format for visualization. The
// start vertex is drawn with a double circle; highlight (optional, may be
// nil) marks vertices to fill — typically query answers.
func (g *Graph) WriteDOT(w io.Writer, name string, highlight map[int32]bool) error {
	bw := bufio.NewWriter(w)
	if name == "" {
		name = "G"
	}
	fmt.Fprintf(bw, "digraph %s {\n", dotID(name))
	fmt.Fprintf(bw, "  rankdir=TB;\n  node [shape=circle, fontsize=10];\n  edge [fontsize=9];\n")
	for v := 0; v < g.NumVertices(); v++ {
		attrs := []string{fmt.Sprintf("label=%q", g.VertexName(int32(v)))}
		if int32(v) == g.start {
			attrs = append(attrs, "shape=doublecircle")
		}
		if highlight != nil && highlight[int32(v)] {
			attrs = append(attrs, "style=filled", "fillcolor=lightgoldenrod")
		}
		fmt.Fprintf(bw, "  n%d [%s];\n", v, strings.Join(attrs, ", "))
	}
	for v := 0; v < g.NumVertices(); v++ {
		for _, e := range g.adj[v] {
			fmt.Fprintf(bw, "  n%d -> n%d [label=%q];\n", v, e.To, g.Label(e.LabelID).Format(g.U))
		}
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}

// dotID makes a string safe as a DOT identifier.
func dotID(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r == '_' || ('a' <= r && r <= 'z') || ('A' <= r && r <= 'Z') || ('0' <= r && r <= '9'):
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "G"
	}
	return b.String()
}

package graph

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"rpq/internal/label"
)

// The textual graph format, one directive per line:
//
//	# comment
//	start <vertex>
//	edge <src> <label> <dst>
//
// Vertex names are identifiers; labels are ground terms such as def(a),
// use(x,17), exit(). Example (the program graph of Figure 1):
//
//	start v1
//	edge v1 def(a) v2
//	edge v2 use(a) v3
//	edge v3 def(a) v4
//	edge v4 use(b) v5

// Read parses the textual graph format.
func Read(r io.Reader) (*Graph, error) {
	g := New()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "start":
			if len(fields) != 2 {
				return nil, fmt.Errorf("graph: line %d: start takes one vertex", lineNo)
			}
			g.SetStart(g.Vertex(fields[1]))
		case "edge":
			if len(fields) < 4 {
				return nil, fmt.Errorf("graph: line %d: edge takes src, label, dst", lineNo)
			}
			// The label may contain spaces: the destination is the last
			// field, the label everything between.
			src := fields[1]
			dst := fields[len(fields)-1]
			lbl := strings.Join(fields[2:len(fields)-1], " ")
			if !label.ParseArgsHint(lbl) {
				return nil, fmt.Errorf("graph: line %d: bad label %q", lineNo, lbl)
			}
			if err := g.AddEdgeStr(src, lbl, dst); err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
			}
		default:
			return nil, fmt.Errorf("graph: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return g, nil
}

// ReadString parses a graph from a string.
func ReadString(s string) (*Graph, error) { return Read(strings.NewReader(s)) }

// MustReadString is ReadString that panics on error.
func MustReadString(s string) *Graph {
	g, err := ReadString(s)
	if err != nil {
		panic(err)
	}
	return g
}

// Write emits the graph in the textual format.
func (g *Graph) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if g.start >= 0 {
		fmt.Fprintf(bw, "start %s\n", g.VertexName(g.start))
	}
	for v := 0; v < g.NumVertices(); v++ {
		for _, e := range g.adj[v] {
			fmt.Fprintf(bw, "edge %s %s %s\n",
				g.VertexName(int32(v)), g.Label(e.LabelID).Format(g.U), g.VertexName(e.To))
		}
	}
	return bw.Flush()
}

// String renders the graph in the textual format.
func (g *Graph) String() string {
	var b strings.Builder
	_ = g.Write(&b)
	return b.String()
}

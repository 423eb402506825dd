// Package lts implements labeled transition systems and the two graph
// transformations of Liu et al. (PLDI 2004), Section 2.3, that make states
// visible to path queries: a state(v) self-loop per vertex for existential
// queries, and a split of each vertex into v_in --state(v)--> v_out for
// universal queries. It reads and writes the Aldébaran ".aut" format used
// by the VLTS benchmark suite the paper evaluates on.
package lts

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"rpq/internal/graph"
	"rpq/internal/label"
)

// Transition is one labeled transition of an LTS.
type Transition struct {
	From   int32
	Action string
	To     int32
}

// LTS is a labeled transition system: a finite graph with a distinguished
// initial state whose edges carry actions. The invisible internal action is
// conventionally named "i".
type LTS struct {
	Initial   int32
	NumStates int
	Trans     []Transition
}

// Invisible is the conventional name of the internal action.
const Invisible = "i"

// maxStates is the largest state count ReadAUT accepts: ForUniversal builds
// two vertices per state, and vertex ids are int32.
const maxStates = math.MaxInt32 / 2

// StateBoundError rejects an AUT header that declares more states than its
// transitions can name: each transition names at most two states, and the
// initial state needs none, so a body with n transitions has at most 2n+1
// states worth building. Without the bound a few header bytes would make
// ForExistential or ForUniversal allocate one vertex per declared state.
type StateBoundError struct {
	States, Transitions int
}

func (e *StateBoundError) Error() string {
	return fmt.Sprintf("lts: header declares %d states, but %d transitions name at most %d",
		e.States, e.Transitions, 2*e.Transitions+1)
}

// ReadAUT parses the Aldébaran format:
//
//	des (initial, transitions, states)
//	(from, "action", to)
//	...
func ReadAUT(r io.Reader) (*LTS, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 64*1024*1024)
	if !sc.Scan() {
		return nil, fmt.Errorf("lts: empty input")
	}
	header := strings.TrimSpace(sc.Text())
	var initial, ntrans, nstates int
	if _, err := fmt.Sscanf(header, "des (%d, %d, %d)", &initial, &ntrans, &nstates); err != nil {
		return nil, fmt.Errorf("lts: bad header %q: %v", header, err)
	}
	if nstates < 0 || initial < 0 || initial >= nstates {
		return nil, fmt.Errorf("lts: header %q: initial state must lie in [0, states)", header)
	}
	if nstates > maxStates {
		return nil, fmt.Errorf("lts: header %q: %d states, at most %d fit int32 vertex ids", header, nstates, maxStates)
	}
	l := &LTS{Initial: int32(initial), NumStates: nstates}
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		tr, err := parseAUTTransition(text)
		if err != nil {
			return nil, fmt.Errorf("lts: line %d: %v", line, err)
		}
		if int(tr.From) >= nstates || int(tr.To) >= nstates || tr.From < 0 || tr.To < 0 {
			return nil, fmt.Errorf("lts: line %d: state out of range in %q", line, text)
		}
		l.Trans = append(l.Trans, tr)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(l.Trans) != ntrans {
		return nil, fmt.Errorf("lts: header declares %d transitions, found %d", ntrans, len(l.Trans))
	}
	if nstates > 2*len(l.Trans)+1 {
		return nil, &StateBoundError{States: nstates, Transitions: len(l.Trans)}
	}
	return l, nil
}

func parseAUTTransition(s string) (Transition, error) {
	if !strings.HasPrefix(s, "(") || !strings.HasSuffix(s, ")") {
		return Transition{}, fmt.Errorf("bad transition %q", s)
	}
	body := s[1 : len(s)-1]
	// from, "action possibly, with, commas", to
	c1 := strings.Index(body, ",")
	c2 := strings.LastIndex(body, ",")
	if c1 < 0 || c2 <= c1 {
		return Transition{}, fmt.Errorf("bad transition %q", s)
	}
	from, err := strconv.ParseInt(strings.TrimSpace(body[:c1]), 10, 32)
	if err != nil {
		return Transition{}, fmt.Errorf("bad source in %q", s)
	}
	to, err := strconv.ParseInt(strings.TrimSpace(body[c2+1:]), 10, 32)
	if err != nil {
		return Transition{}, fmt.Errorf("bad target in %q", s)
	}
	action := strings.TrimSpace(body[c1+1 : c2])
	action = strings.Trim(action, `"`)
	if action == "" {
		return Transition{}, fmt.Errorf("empty action in %q", s)
	}
	return Transition{From: int32(from), Action: action, To: int32(to)}, nil
}

// ReadAUTString parses an AUT description from a string.
func ReadAUTString(s string) (*LTS, error) { return ReadAUT(strings.NewReader(s)) }

// WriteAUT emits the LTS in the Aldébaran format.
func (l *LTS) WriteAUT(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "des (%d, %d, %d)\n", l.Initial, len(l.Trans), l.NumStates)
	for _, t := range l.Trans {
		fmt.Fprintf(bw, "(%d, %q, %d)\n", t.From, t.Action, t.To)
	}
	return bw.Flush()
}

// String renders the LTS in the AUT format.
func (l *LTS) String() string {
	var b strings.Builder
	_ = l.WriteAUT(&b)
	return b.String()
}

// stateName returns the symbol/vertex name of state i.
func stateName(i int32) string { return "s" + strconv.Itoa(int(i)) }

// sanitizeAction conservatively normalizes an action name into a symbol.
func sanitizeAction(a string) string {
	var b strings.Builder
	for _, r := range a {
		switch {
		case r == '_' || r == '.' || r == '-',
			'a' <= r && r <= 'z', 'A' <= r && r <= 'Z', '0' <= r && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_act"
	}
	return b.String()
}

// ForExistential produces the graph for existential queries: each
// transition becomes an act(a) edge, and every state v gains a self-loop
// labeled state(v).
func (l *LTS) ForExistential() *graph.Graph {
	g := graph.New()
	for i := 0; i < l.NumStates; i++ {
		name := stateName(int32(i))
		v := g.Vertex(name)
		if err := g.AddEdge(v, label.App("state", label.Sym(name)), v); err != nil {
			panic(err)
		}
	}
	// State i is vertex i: the loop above interned the states in order.
	for _, t := range l.Trans {
		a := label.App("act", label.Sym(sanitizeAction(t.Action)))
		if err := g.AddEdge(t.From, a, t.To); err != nil {
			panic(err)
		}
	}
	g.SetStart(l.Initial)
	return g
}

// ForUniversal produces the graph for universal queries: each state v is
// split into v_in and v_out connected by a state(v) edge; transitions run
// from sources' out-vertices to targets' in-vertices.
func (l *LTS) ForUniversal() *graph.Graph {
	g := graph.New()
	inV := make([]int32, l.NumStates)
	outV := make([]int32, l.NumStates)
	for i := 0; i < l.NumStates; i++ {
		inV[i] = g.Vertex(stateName(int32(i)) + "_in")
		outV[i] = g.Vertex(stateName(int32(i)) + "_out")
	}
	for i := 0; i < l.NumStates; i++ {
		t := label.App("state", label.Sym(stateName(int32(i))))
		if err := g.AddEdge(inV[i], t, outV[i]); err != nil {
			panic(err)
		}
	}
	for _, t := range l.Trans {
		a := label.App("act", label.Sym(sanitizeAction(t.Action)))
		if err := g.AddEdge(outV[t.From], a, inV[t.To]); err != nil {
			panic(err)
		}
	}
	g.SetStart(inV[l.Initial])
	return g
}

// DeadlockStates returns the states with no outgoing transitions that are
// reachable from the initial state — ground truth for the deadlock query.
func (l *LTS) DeadlockStates() []int32 {
	out := make([]int, l.NumStates)
	adj := make([][]int32, l.NumStates)
	for _, t := range l.Trans {
		out[t.From]++
		adj[t.From] = append(adj[t.From], t.To)
	}
	seen := make([]bool, l.NumStates)
	stack := []int32{l.Initial}
	seen[l.Initial] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adj[v] {
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	var dead []int32
	for i := 0; i < l.NumStates; i++ {
		if seen[i] && out[i] == 0 {
			dead = append(dead, int32(i))
		}
	}
	return dead
}

// HasLivelock reports whether a reachable cycle of invisible actions exists
// — ground truth for the livelock query. It searches the subgraph of
// invisible transitions restricted to reachable states.
func (l *LTS) HasLivelock() bool {
	adj := make([][]int32, l.NumStates)
	inv := make([][]int32, l.NumStates)
	for _, t := range l.Trans {
		adj[t.From] = append(adj[t.From], t.To)
		if t.Action == Invisible {
			inv[t.From] = append(inv[t.From], t.To)
		}
	}
	seen := make([]bool, l.NumStates)
	stack := []int32{l.Initial}
	seen[l.Initial] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adj[v] {
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	// Cycle detection over invisible edges among reachable states.
	color := make([]int8, l.NumStates) // 0 white, 1 gray, 2 black
	var dfs func(v int32) bool
	dfs = func(v int32) bool {
		color[v] = 1
		for _, w := range inv[v] {
			if !seen[w] {
				continue
			}
			if color[w] == 1 {
				return true
			}
			if color[w] == 0 && dfs(w) {
				return true
			}
		}
		color[v] = 2
		return false
	}
	for v := 0; v < l.NumStates; v++ {
		if seen[v] && color[v] == 0 {
			if dfs(int32(v)) {
				return true
			}
		}
	}
	return false
}

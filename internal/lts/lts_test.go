package lts

import (
	"errors"
	"strings"
	"testing"

	"rpq/internal/core"
	"rpq/internal/pattern"
)

const sampleAUT = `des (0, 6, 5)
(0, "open", 1)
(1, "i", 2)
(2, "i", 1)
(1, "close", 3)
(3, "crash", 4)
(0, "open", 3)
`

func TestReadWriteAUT(t *testing.T) {
	l, err := ReadAUTString(sampleAUT)
	if err != nil {
		t.Fatal(err)
	}
	if l.Initial != 0 || l.NumStates != 5 || len(l.Trans) != 6 {
		t.Fatalf("parsed %d/%d/%d", l.Initial, l.NumStates, len(l.Trans))
	}
	back, err := ReadAUTString(l.String())
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if back.String() != l.String() {
		t.Fatalf("round trip differs")
	}
}

func TestReadAUTErrors(t *testing.T) {
	bad := []string{
		"",
		"des (0, 1, 2)", // missing transition
		"not a header\n",
		"des (0, 1, 2)\n(0, \"a\", 5)\n", // state out of range
		"des (0, 1, 2)\n(x, \"a\", 1)\n",
		"des (0, 1, 2)\nbroken\n",
		"des (0, 0, 0)\n",  // no states, so no initial state
		"des (0, 0, -1)\n", // negative state count
		"des (2, 0, 2)\n",  // initial state past the last state
		"des (-1, 0, 2)\n", // negative initial state
		// State ids past int32: 2^32 once truncated to the self-loop (0, "a", 0).
		"des (0, 1, 1)\n(4294967296, \"a\", 0)\n",
		"des (0, 1, 1)\n(0, \"a\", -4294967296)\n",
		"des (0, 0, 1073741824)\n", // one state more than int32 vertex ids number twice over
	}
	for _, in := range bad {
		if _, err := ReadAUTString(in); err == nil {
			t.Errorf("ReadAUTString(%q) succeeded, want error", in)
		}
	}
	// The largest state count that fits int32 vertex ids is still refused
	// when no transition names those states.
	var sb *StateBoundError
	if _, err := ReadAUTString("des (0, 0, 1073741823)\n"); !errors.As(err, &sb) || sb.States != maxStates {
		t.Errorf("largest header without transitions: %v, want *StateBoundError", err)
	}
}

// TestReadAUTStateBound: a header may declare every state its transitions
// name plus the initial state, 2n+1 for n transitions, and no more.
func TestReadAUTStateBound(t *testing.T) {
	for _, in := range []string{
		"des (0, 0, 1)\n",
		"des (0, 1, 3)\n(0, \"a\", 1)\n",
		"des (0, 2, 5)\n(1, \"a\", 2)\n(3, \"b\", 4)\n",
	} {
		if _, err := ReadAUTString(in); err != nil {
			t.Errorf("ReadAUTString(%q): %v", in, err)
		}
	}
	for _, in := range []string{
		"des (0, 0, 2)\n",
		"des (0, 1, 4)\n(0, \"a\", 1)\n",
		"des (0, 0, 2000000)\n",
	} {
		var sb *StateBoundError
		if _, err := ReadAUTString(in); !errors.As(err, &sb) {
			t.Errorf("ReadAUTString(%q) = %v, want *StateBoundError", in, err)
		}
	}
}

func TestActionWithCommasAndQuotes(t *testing.T) {
	l, err := ReadAUTString("des (0, 1, 2)\n(0, \"send(a, b)\", 1)\n")
	if err != nil {
		t.Fatal(err)
	}
	if l.Trans[0].Action != "send(a, b)" {
		t.Fatalf("action = %q", l.Trans[0].Action)
	}
}

func TestForExistentialShape(t *testing.T) {
	l, _ := ReadAUTString(sampleAUT)
	g := l.ForExistential()
	if g.NumVertices() != 5 {
		t.Fatalf("vertices = %d, want 5", g.NumVertices())
	}
	// 5 state self-loops + 6 act edges.
	if g.NumEdges() != 11 {
		t.Fatalf("edges = %d, want 11", g.NumEdges())
	}
}

// TestForExistentialActions builds the existential graph for actions that
// sanitize to text the ground-label parser would reject (the wildcard _,
// signed and dotted numbers); each must become a plain act symbol.
func TestForExistentialActions(t *testing.T) {
	for _, tc := range []struct{ action, want string }{
		{"open", "act('open')"},
		{"_", "act('_')"},
		{"!", "act('_')"},
		{"?", "act('_')"},
		{"-1", "act('-1')"},
		{"1.5", "act('1.5')"},
		{".", "act('.')"},
		{"-", "act('-')"},
		{"1e5", "act('1e5')"},
		{"0x1F", "act('0x1F')"},
	} {
		l := &LTS{NumStates: 2, Trans: []Transition{{From: 0, Action: tc.action, To: 1}}}
		g := l.ForExistential()
		if g.NumVertices() != 2 || g.NumEdges() != 3 {
			t.Fatalf("%q: %d vertices, %d edges; want 2, 3", tc.action, g.NumVertices(), g.NumEdges())
		}
		var acts []string
		for _, e := range g.Out(0) {
			if e.To == 1 {
				acts = append(acts, g.Label(e.LabelID).Format(g.U))
			}
		}
		if len(acts) != 1 || acts[0] != tc.want {
			t.Errorf("action %q: edge labels %v, want [%s]", tc.action, acts, tc.want)
		}
	}
}

func TestForUniversalShape(t *testing.T) {
	l, _ := ReadAUTString(sampleAUT)
	g := l.ForUniversal()
	if g.NumVertices() != 10 {
		t.Fatalf("vertices = %d, want 10", g.NumVertices())
	}
	if g.NumEdges() != 5+6 {
		t.Fatalf("edges = %d, want 11", g.NumEdges())
	}
	if !strings.HasSuffix(g.VertexName(g.Start()), "_in") {
		t.Fatalf("start should be an in-vertex, got %s", g.VertexName(g.Start()))
	}
}

func TestDeadlockDetectionQuery(t *testing.T) {
	// State 4 is reachable and has no outgoing transitions.
	l, _ := ReadAUTString(sampleAUT)
	dead := l.DeadlockStates()
	if len(dead) != 1 || dead[0] != 4 {
		t.Fatalf("DeadlockStates = %v, want [4]", dead)
	}
	// The paper's query: _* state(s) act(_) finds states WITH outgoing
	// edges; reachable states not in the result are deadlocks.
	g := l.ForExistential()
	q := core.MustCompile(pattern.MustParse("_* state(s) act(_)"), g.U)
	res, err := core.Exist(g, g.Start(), q, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s0, _ := q.PS.Lookup("s")
	alive := map[string]bool{}
	for _, p := range res.Pairs {
		if p.Subst[s0] >= 0 {
			alive[g.U.Syms.Name(p.Subst[s0])] = true
		}
	}
	for i := 0; i < 4; i++ {
		name := "s" + string(rune('0'+i))
		if !alive[name] {
			t.Errorf("state %s has outgoing edges but is not in the result: %v", name, alive)
		}
	}
	if alive["s4"] {
		t.Errorf("deadlocked state s4 appears to have outgoing edges")
	}
}

func TestLivelockDetectionQuery(t *testing.T) {
	l, _ := ReadAUTString(sampleAUT)
	if !l.HasLivelock() {
		t.Fatalf("states 1<->2 form an invisible cycle")
	}
	g := l.ForExistential()
	q := core.MustCompile(pattern.MustParse("_* state(s) act('i')+ state(s)"), g.U)
	res, err := core.Exist(g, g.Start(), q, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) == 0 {
		t.Fatalf("livelock query found nothing")
	}
	s0, _ := q.PS.Lookup("s")
	found := map[string]bool{}
	for _, p := range res.Pairs {
		found[g.U.Syms.Name(p.Subst[s0])] = true
	}
	if !found["s1"] || !found["s2"] {
		t.Errorf("livelock states = %v, want s1 and s2", found)
	}
	// An LTS without an invisible cycle yields an empty livelock result.
	l2, _ := ReadAUTString("des (0, 2, 3)\n(0, \"i\", 1)\n(1, \"a\", 2)\n")
	if l2.HasLivelock() {
		t.Fatalf("no invisible cycle expected")
	}
	g2 := l2.ForExistential()
	q2 := core.MustCompile(pattern.MustParse("_* state(s) act('i')+ state(s)"), g2.U)
	res2, err := core.Exist(g2, g2.Start(), q2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Pairs) != 0 {
		t.Errorf("livelock falsely detected: %v", res2.Pairs)
	}
}

func TestSanitizeAction(t *testing.T) {
	if got := sanitizeAction("send(a, b)"); got != "send_a__b_" {
		t.Errorf("sanitizeAction = %q", got)
	}
	if got := sanitizeAction(""); got != "_act" {
		t.Errorf("sanitizeAction(\"\") = %q", got)
	}
}

func TestUnreachableDeadlockIgnored(t *testing.T) {
	// State 2 has no outgoing edges but is unreachable.
	l, err := ReadAUTString("des (0, 1, 3)\n(0, \"a\", 1)\n")
	if err != nil {
		t.Fatal(err)
	}
	dead := l.DeadlockStates()
	if len(dead) != 1 || dead[0] != 1 {
		t.Fatalf("DeadlockStates = %v, want [1]", dead)
	}
}

package tracelog

import (
	"strings"
	"testing"

	"rpq/internal/core"
	"rpq/internal/pattern"
)

const sampleLog = `
# an audit log
login(alice)
open(passwd, alice)
read(passwd, alice)
close(passwd, alice)
login(bob)
open(passwd, bob)
exec(shell, bob)
close(passwd, bob)
logout(alice)
`

func TestReadLinearGraph(t *testing.T) {
	g, err := ReadString(sampleLog)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 9 {
		t.Fatalf("events = %d, want 9", g.NumEdges())
	}
	if g.NumVertices() != 10 {
		t.Fatalf("vertices = %d, want 10", g.NumVertices())
	}
	// Linear: every vertex has at most one outgoing edge.
	for v := 0; v < g.NumVertices(); v++ {
		if len(g.Out(int32(v))) > 1 {
			t.Fatalf("vertex %d has %d out edges", v, len(g.Out(int32(v))))
		}
	}
}

func TestReadErrors(t *testing.T) {
	for _, in := range []string{"open(", "not a label (", "_"} {
		if _, err := ReadString(in); err == nil {
			t.Errorf("ReadString(%q) succeeded, want error", in)
		}
	}
}

func TestIntrusionSignature(t *testing.T) {
	g, err := ReadString(sampleLog)
	if err != nil {
		t.Fatal(err)
	}
	// Signature: a user opens the password file and executes a program
	// while it is still open. Only bob triggers it.
	q := core.MustCompile(pattern.MustParse("_* open('passwd', u) (!close('passwd', u))* exec(_, u)"), g.U)
	res, err := core.Exist(g, g.Start(), q, core.Options{Witnesses: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 1 {
		t.Fatalf("hits = %v", res.Pairs)
	}
	u, _ := q.PS.Lookup("u")
	if g.U.Syms.Name(res.Pairs[0].Subst[u]) != "bob" {
		t.Fatalf("culprit = %s, want bob", res.Pairs[0].Subst.Format(g.U, q.PS))
	}
	// The answer's vertex maps back to the event number.
	idx, ok := EventIndex(g.VertexName(res.Pairs[0].Vertex))
	if !ok || idx != 7 {
		t.Fatalf("event index = %d, %v (want 7, the exec)", idx, ok)
	}
	// The witness ends at the exec event.
	w := res.Pairs[0].Witness
	if len(w) != 7 || !strings.HasPrefix(w[len(w)-1].Label.Format(g.U), "exec(") {
		t.Fatalf("witness = %v", w)
	}
}

func TestSessionCorrelation(t *testing.T) {
	// Parameters correlate events of one session even when interleaved:
	// alice's open/close pair wraps bob's whole session, but each user's
	// own events line up.
	g, err := ReadString(sampleLog)
	if err != nil {
		t.Fatal(err)
	}
	q := core.MustCompile(pattern.MustParse("_* login(u) (!logout(u))* logout(u)"), g.U)
	res, err := core.Exist(g, g.Start(), q, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	users := map[string]bool{}
	u, _ := q.PS.Lookup("u")
	for _, p := range res.Pairs {
		users[g.U.Syms.Name(p.Subst[u])] = true
	}
	if !users["alice"] || users["bob"] {
		t.Fatalf("completed sessions = %v, want alice only", users)
	}
}

func TestEventIndex(t *testing.T) {
	if i, ok := EventIndex("t42"); !ok || i != 42 {
		t.Errorf("EventIndex(t42) = %d, %v", i, ok)
	}
	if _, ok := EventIndex("x1"); ok {
		t.Errorf("EventIndex(x1) accepted")
	}
	if _, ok := EventIndex("tzz"); ok {
		t.Errorf("EventIndex(tzz) accepted")
	}
}

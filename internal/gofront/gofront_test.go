package gofront

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"rpq/internal/cfgschema"
	"rpq/internal/graph"
	"rpq/internal/label"
)

const fixtures = "../../testdata/goprog"

func load(t *testing.T, dir string, cfg Config) *Program {
	t.Helper()
	p, err := Load([]string{filepath.Join(fixtures, dir)}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestShapesGolden pins the exact lowering of every statement form against
// a committed dump. Regenerate with UPDATE_GOLDEN=1.
func TestShapesGolden(t *testing.T) {
	p := load(t, "shapes", Config{})
	got := p.DebugDump()
	golden := filepath.Join("testdata", "shapes.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create)", err)
	}
	if got != string(want) {
		t.Errorf("shapes dump mismatch (regen with UPDATE_GOLDEN=1)\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestDeterministicAcrossWorkers asserts byte-identical programs for every
// worker count: the merge order is the contract, not the scheduling. The
// graph, the position of every vertex, the function list, the label keys
// and the universe names must all agree.
func TestDeterministicAcrossWorkers(t *testing.T) {
	dirs := []string{filepath.Join(fixtures, "benchmod") + "/..."}
	base, err := Load(dirs, Config{Interproc: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprint(base)
	for _, w := range []int{2, 3, 8} {
		p, err := Load(dirs, Config{Interproc: true, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		got := fingerprint(p)
		for part := range want {
			if got[part] != want[part] {
				t.Errorf("workers=%d produced a different %s (len %d vs %d)", w, part, len(got[part]), len(want[part]))
			}
		}
	}

	// With several malformed files, the error names the first of them in
	// sorted order.
	bad := map[string]string{
		"a.go": "package p\n\nfunc A() {}\n",
		"b.go": "package p\n\nfunc B( {\n",
		"c.go": "package p\n\nfunc C() {}\n",
		"d.go": "package p\n\nfunc D() }\n",
	}
	for _, w := range []int{1, 2, 3, 8} {
		if _, err := LoadSource(bad, Config{Workers: w}); err == nil || !strings.HasPrefix(err.Error(), "gofront: b.go:") {
			t.Errorf("workers=%d: error %v, want one at b.go", w, err)
		}
	}
}

// fingerprint renders every part of a program the merge numbers or
// records, keyed by part.
func fingerprint(p *Program) map[string]string {
	var pos, funcs, labels strings.Builder
	g := p.Graph
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		if l, ok := p.Location(g.VertexName(v)); ok {
			fmt.Fprintf(&pos, "%s %s %v\n", g.VertexName(v), l, l.Span)
		}
	}
	for _, f := range p.Funcs {
		fmt.Fprintf(&funcs, "%+v\n", f)
	}
	for _, c := range g.Labels() {
		fmt.Fprintln(&labels, c.Key())
	}
	return map[string]string{
		"graph":     p.DebugDump(),
		"positions": pos.String(),
		"functions": funcs.String(),
		"labels":    labels.String(),
		"universe":  fmt.Sprint(g.U.Ctors.Names(), g.U.Syms.Names()),
	}
}

// TestLinkedGolden pins the interprocedural graph of benchmod and requires
// the linked copy of the intraprocedural program to equal the program Load
// links in place: the same dump, label ids and universe keys. Linking the
// copy must leave the intraprocedural graph as it was. Regenerate with
// UPDATE_GOLDEN=1.
func TestLinkedGolden(t *testing.T) {
	dirs := []string{filepath.Join(fixtures, "benchmod") + "/..."}
	inter, err := Load(dirs, Config{Interproc: true})
	if err != nil {
		t.Fatal(err)
	}
	intra, err := Load(dirs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	intraDump, ctors := intra.DebugDump(), intra.Graph.U.Ctors.Len()
	linked, err := intra.Linked()
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "benchmod_interproc.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(inter.DebugDump()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create)", err)
	}
	for name, p := range map[string]*Program{"Load(Interproc)": inter, "Linked": linked} {
		if got := p.DebugDump(); got != string(want) {
			t.Errorf("%s dump mismatch (regen with UPDATE_GOLDEN=1)\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
		}
	}
	keys := func(p *Program) []string {
		var ks []string
		for _, c := range p.Graph.Labels() {
			ks = append(ks, c.Key())
		}
		return ks
	}
	if !slices.Equal(keys(linked), keys(inter)) {
		t.Errorf("label ids differ:\nlinked %v\ninter  %v", keys(linked), keys(inter))
	}
	lu, iu := linked.Graph.U, inter.Graph.U
	if !slices.Equal(lu.Ctors.Names(), iu.Ctors.Names()) || !slices.Equal(lu.Syms.Names(), iu.Syms.Names()) {
		t.Errorf("universe keys differ:\nlinked %v %v\ninter  %v %v",
			lu.Ctors.Names(), lu.Syms.Names(), iu.Ctors.Names(), iu.Syms.Names())
	}
	if intra.DebugDump() != intraDump || intra.Graph.U.Ctors.Len() != ctors {
		t.Error("Linked changed the intraprocedural graph")
	}
}

// TestParallelLoadRace drives concurrent Loads to let -race inspect the
// worker fan-out.
func TestParallelLoadRace(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := Load([]string{filepath.Join(fixtures, "benchmod") + "/..."},
				Config{Interproc: true, Workers: 4})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

func TestInterprocLinks(t *testing.T) {
	p, err := Load([]string{filepath.Join(fixtures, "benchmod") + "/..."},
		Config{Interproc: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	dump := p.DebugDump()
	for _, want := range []string{
		// main calls across packages; call edge enters the callee's entry.
		"-call(benchmod/store.New)-> benchmod/store.New.entry",
		"-ret(benchmod/store.New)->",
		// goroutine launch links entry-only.
		"-go(benchmod.produce)-> benchmod.produce.entry",
		// the pipeline worker closure is reachable from its go statement.
		"-go(benchmod/pipeline.Run.func1)-> benchmod/pipeline.Run.func1.entry",
		// deferred s.Close() at main's exit is a close effect on s.
		"close(benchmod.main.s)",
		// every function hangs off the synthetic root.
		"root -entry(benchmod/pipeline.weight)->",
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("interproc dump missing %q", want)
		}
	}
	if _, ok := p.Func("benchmod/store.Store.Put"); !ok {
		t.Errorf("method Put not registered")
	}
}

func TestPositions(t *testing.T) {
	p := load(t, "uninit", Config{})
	// The fixture sits inside this repository's module, so the module path
	// qualifies the package.
	fi, ok := p.Func("rpq/testdata/goprog/uninit.Report")
	if !ok {
		t.Fatalf("Report not found; funcs: %v", names(p))
	}
	loc, ok := p.Location(fi.Entry)
	if !ok {
		t.Fatal("no location for Report entry")
	}
	if filepath.Base(loc.File) != "uninit.go" || loc.Line != 9 {
		t.Errorf("Report entry at %s, want uninit.go:9 (the declaration name)", loc)
	}
	src, ok := p.Source(loc.File)
	if !ok || !strings.Contains(src, "package uninit") {
		t.Errorf("source for %s not retained", loc.File)
	}
}

func names(p *Program) []string {
	var out []string
	for _, f := range p.Funcs {
		out = append(out, f.Name)
	}
	return out
}

func TestAllows(t *testing.T) {
	p := load(t, "uninit", Config{})
	file := ""
	for f := range p.files {
		file = f
	}
	// The //rpqcheck:allow uninit-use sits on the `return n` line of
	// Allowed (line 43).
	if !p.Allowed(file, 43, "uninit-use") {
		t.Errorf("line 43 should allow uninit-use")
	}
	if p.Allowed(file, 43, "double-lock") {
		t.Errorf("line 43 must not allow double-lock")
	}
	if p.Allowed(file, 10, "uninit-use") {
		t.Errorf("line 10 has no allow comment")
	}
}

// TestLoadSource covers the in-memory path used by the service loader,
// including txtar splitting and module-path qualification.
func TestLoadSource(t *testing.T) {
	body := `-- go.mod --
module demo

-- a.go --
package main

func main() {
	helper()
}

-- util/u.go --
package util

func Twice(x int) int { return x + x }
-- b.go --
package main

func helper() {}
`
	files := SplitSource(body)
	if len(files) != 4 {
		t.Fatalf("SplitSource found %d files, want 4", len(files))
	}
	p, err := LoadSource(files, Config{Interproc: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Func("demo.main"); !ok {
		t.Errorf("demo.main missing; funcs: %v", names(p))
	}
	if _, ok := p.Func("demo/util.Twice"); !ok {
		t.Errorf("demo/util.Twice missing; funcs: %v", names(p))
	}
	if !strings.Contains(p.DebugDump(), "-call(demo.helper)-> demo.helper.entry") {
		t.Errorf("intra-package call not linked")
	}

	// The "-- " prefix and " --" suffix overlap here; it is no marker.
	for _, body := range []string{"-- --", "-- --\n", "-- -- x\n-- --"} {
		if got := SplitSource(body); len(got) != 1 || got["main.go"] != body {
			t.Errorf("SplitSource(%q) = %v, want the body as main.go", body, got)
		}
	}

	single := SplitSource("package solo\n\nfunc F() {}\n")
	if len(single) != 1 || single["main.go"] == "" {
		t.Fatalf("plain body should become main.go, got %v", single)
	}
	p2, err := LoadSource(single, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p2.Func("solo.F"); !ok {
		t.Errorf("solo.F missing; funcs: %v", names(p2))
	}
}

// TestEdgeCaseLowering spot-checks tricky statement forms straight from
// source snippets.
func TestEdgeCaseLowering(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []string
	}{
		{
			name: "shadowing gets distinct symbols",
			src: `package p
func F() int {
	x := 1
	{
		x := 2
		_ = x
	}
	return x
}`,
			want: []string{"def(p.F.x)", "def(p.F.x#2)", "use(p.F.x#2)", "use(p.F.x)"},
		},
		{
			name: "redeclaration via := reuses the symbol",
			src: `package p
func F() (int, int) {
	a, err := G()
	b, err := G()
	_ = err
	return a, b
}
func G() (int, int) { return 0, 0 }`,
			want: []string{"def(p.F.err)"},
		},
		{
			name: "method value receiver is a use",
			src: `package p
type T struct{}
func (t T) M() {}
func F(t T) {
	f := t.M
	f()
}`,
			want: []string{"use(p.F.t.M)", "def(p.F.f)", "call(p.F.f)"},
		},
		{
			name: "closure captures enclosing variable",
			src: `package p
func F() {
	n := 0
	go func() {
		n++
	}()
}`,
			// The literal's body increments the *captured* n: the def inside
			// func1 carries the parent's symbol.
			want: []string{"p.F.func1.entry -def(p.F.n)", "go(p.F.func1)-> p.F.func1.entry"},
		},
		{
			name: "augmented assignment is write-only",
			src: `package p
func F(n int) int {
	var s int
	s += n
	return s
}`,
			want: []string{"decl(p.F.s)", "use(p.F.n)", "def(p.F.s)", "use(p.F.s)"},
		},
		{
			name: "channel receive emits use and recv",
			src: `package p
func F(ch chan int) int {
	v := <-ch
	return v
}`,
			want: []string{"use(p.F.ch)", "recv(p.F.ch)", "def(p.F.v)"},
		},
		{
			name: "panic runs defers and leaves",
			src: `package p
func F(mu interface{ Unlock() }) {
	defer mu.Unlock()
	panic("boom")
}`,
			want: []string{"defer(unlock:p.F.mu,p.F.d1)", "call(panic)", "unlock(p.F.mu)"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := LoadSource(map[string]string{"x.go": tc.src}, Config{Interproc: true})
			if err != nil {
				t.Fatal(err)
			}
			dump := p.DebugDump()
			at := 0
			for _, w := range tc.want {
				i := strings.Index(dump[at:], w)
				if i < 0 {
					t.Fatalf("dump missing %q (in order) after offset %d:\n%s", w, at, dump)
				}
				at += i + len(w)
			}
		})
	}
}

// TestEntryExitShape asserts the per-function frame: root entry edge, defs
// for params at entry, exit(f) edge out of the return join.
func TestEntryExitShape(t *testing.T) {
	p, err := LoadSource(map[string]string{"x.go": `package p
func Add(a, b int) (sum int) {
	sum = a + b
	return
}`}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	dump := p.DebugDump()
	for _, want := range []string{
		"root -entry(p.Add)-> p.Add.entry",
		"def(p.Add.a)", "def(p.Add.b)", "def(p.Add.sum)",
		"p.Add.ret -exit(p.Add)-> p.Add.exit",
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q:\n%s", want, dump)
		}
	}
}

// TestDuplicateFuncNames: build-tag variants of one function parse as
// duplicates; the first in file order keeps the plain name and the others
// are numbered from ~2.
func TestDuplicateFuncNames(t *testing.T) {
	p, err := LoadSource(map[string]string{
		"go.mod": "module demo\n",
		"a.go":   "package p\n\nfunc F() {}\n",
		"b.go":   "package p\n\nfunc F() {}\n\nfunc G() {}\n",
		"c.go":   "package p\n\nfunc F() {}\n",
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := names(p), []string{"demo.F", "demo.F~2", "demo.G", "demo.F~3"}; !slices.Equal(got, want) {
		t.Errorf("funcs = %v, want %v", got, want)
	}
}

// TestLabelsMatchSchema pins every label helper of the builder to the
// internal/cfgschema helper of the same name, so the labels gofront emits
// cannot drift from the shared schema.
func TestLabelsMatchSchema(t *testing.T) {
	pairs := []struct {
		got  glabel
		want *label.Term
	}{
		{lNop(), cfgschema.Nop()},
		{lEntry("f"), cfgschema.EntryOf("f")},
		{lExit("f"), cfgschema.ExitOf("f")},
		{lDef("x"), cfgschema.Def("x")},
		{lDecl("x"), cfgschema.Decl("x")},
		{lUse("x"), cfgschema.Use("x")},
		{lCall("f"), cfgschema.Call("f")},
		{lMCall("x", "M"), cfgschema.MCall("x", "M")},
		{lRet("f"), cfgschema.Ret("f")},
		{lDeferAt("f", "s"), cfgschema.DeferAt("f", "s")},
		{lGo("f"), cfgschema.Go("f")},
		{lSend("x"), cfgschema.Send("x")},
		{lRecv("x"), cfgschema.Recv("x")},
		{lClose("x"), cfgschema.Close("x")},
		{lLock("m"), cfgschema.Lock("m")},
		{lUnlock("m"), cfgschema.Unlock("m")},
		{lRLock("m"), cfgschema.RLock("m")},
		{lRUnlock("m"), cfgschema.RUnlock("m")},
	}
	for _, p := range pairs {
		var tb termBuf
		g := graph.New()
		id := tb.intern(g, p.got)
		if got, want := g.Label(id).Format(g.U), p.want.String(); got != want {
			t.Errorf("label %s, schema helper %s", got, want)
		}
	}
}

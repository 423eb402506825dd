package queries

import (
	"strings"
	"testing"

	"rpq/internal/core"
	"rpq/internal/graph"
	"rpq/internal/minic"
	"rpq/internal/pattern"
)

func TestCatalogParses(t *testing.T) {
	for _, a := range Catalog() {
		e, err := pattern.Parse(a.Pattern)
		if err != nil {
			t.Errorf("%s: pattern %q does not parse: %v", a.Name, a.Pattern, err)
			continue
		}
		if a.Description == "" {
			t.Errorf("%s: missing description", a.Name)
		}
		// Every pattern must compile against a fresh universe.
		g := graph.New()
		if _, err := core.Compile(e, g.U); err != nil {
			t.Errorf("%s: pattern does not compile: %v", a.Name, err)
		}
	}
	if len(Catalog()) < 15 {
		t.Errorf("catalog has %d entries, expected the full paper set", len(Catalog()))
	}
}

func TestByNameAndNames(t *testing.T) {
	a, err := ByName("uninit-uses")
	if err != nil || a.Name != "uninit-uses" || a.Kind != Existential {
		t.Fatalf("ByName: %+v, %v", a, err)
	}
	if _, err := ByName("zzz"); err == nil {
		t.Fatal("unknown name accepted")
	}
	names := Names()
	if len(names) != len(Catalog()) || names[0] != "uninit-uses" {
		t.Fatalf("Names = %v", names)
	}
	if Universal.String() != "universal" || Forward.String() != "forward" ||
		Backward.String() != "backward" || Existential.String() != "existential" {
		t.Errorf("String() methods broken")
	}
}

func TestViolationQueryFileDiscipline(t *testing.T) {
	src := `
func main() {
	int decoy;
	decoy = 1;
	open(f);
	access(f);
	close(f);
	access(f);      // violation: access after close
	open(g);
	access(g);      // g never closed: violation at exit
	access(h);      // violation: h never opened
	close(k);       // violation: k closed while not open
}
`
	g := minic.MustBuild(src, minic.Config{})
	q, err := ViolationQuery(pattern.MustParse("(open(f) (access(f))* close(f))*"), g.U, true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Exist(g, g.Start(), q, core.Options{Algo: core.AlgoMemo})
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, p := range res.Pairs {
		found[p.Subst.Format(g.U, q.PS)] = true
	}
	for _, want := range []string{"{f↦f}", "{f↦g}", "{f↦h}", "{f↦k}"} {
		if !found[want] {
			t.Errorf("violation %s not found: %v", want, found)
		}
	}
}

func TestViolationQueryCleanProgram(t *testing.T) {
	src := `
func main() {
	open(f);
	access(f);
	access(f);
	close(f);
	open(f);
	close(f);
}
`
	g := minic.MustBuild(src, minic.Config{})
	q, err := ViolationQuery(pattern.MustParse("(open(f) (access(f))* close(f))*"), g.U, true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Exist(g, g.Start(), q, core.Options{Algo: core.AlgoMemo})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 0 {
		var got []string
		for _, p := range res.Pairs {
			got = append(got, g.VertexName(p.Vertex)+" "+p.Subst.Format(g.U, q.PS))
		}
		t.Fatalf("clean program reported violations: %s", strings.Join(got, ", "))
	}
}

func TestViolationQueryBranches(t *testing.T) {
	src := `
func main() {
	int c;
	c = 1;
	open(f);
	if (c) {
		close(f);
	} else {
		access(f);
	}
	access(f);   // violation only on the then-branch (closed there)
}
`
	g := minic.MustBuild(src, minic.Config{})
	q, err := ViolationQuery(pattern.MustParse("(open(f) (access(f))* close(f))*"), g.U, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Exist(g, g.Start(), q, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) == 0 {
		t.Fatalf("branch violation not found")
	}
}

func TestViolationQueryRejectsBadDiscipline(t *testing.T) {
	g := graph.New()
	if _, err := ViolationQuery(pattern.MustParse("eps"), g.U, false); err == nil {
		t.Fatal("label-free discipline accepted")
	}
	if _, err := ViolationQuery(pattern.MustParse("(!open(f))*"), g.U, false); err == nil {
		t.Fatal("negated discipline label accepted")
	}
}

func TestCatalogAnalysesRunOnSamplePrograms(t *testing.T) {
	src := `
func main() {
	int a, b;
	a = 1;
	b = a + a;
	save(flags);
	change();
	open(f);
	access(f);
	seteuid(1);
	close(f);
	restore(flags);
	acq(m);
	b = b + 1;
	rel(m);
	free(p);
	deref(p);
}
`
	g := minic.MustBuild(src, minic.Config{})
	for _, a := range Catalog() {
		if a.Kind != Existential || a.NeedsUseSites || a.NeedsExpLabels || a.NeedsConstDefs || a.NeedsEntryLoop {
			continue
		}
		gg := g
		start := g.Start()
		if a.Dir == Backward {
			gg = g.Reverse()
			// From the vertex after exit() in the forward graph.
			for v := 0; v < g.NumVertices(); v++ {
				for _, e := range g.Out(int32(v)) {
					if g.Label(e.LabelID).Format(g.U) == "exit()" {
						start = e.To
					}
				}
			}
		}
		q := core.MustCompile(a.Expr(), gg.U)
		if _, err := core.Exist(gg, start, q, core.Options{}); err != nil {
			t.Errorf("%s failed: %v", a.Name, err)
		}
	}
	// The setuid query must fire: f is open when seteuid(1) runs.
	a, _ := ByName("setuid-security")
	q := core.MustCompile(a.Expr(), g.U)
	res, err := core.Exist(g, g.Start(), q, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 1 {
		t.Errorf("setuid-security found %d violations, want 1", len(res.Pairs))
	}
	// The freed-memory query must fire for deref(p) after free(p).
	a, _ = ByName("freed-memory")
	q = core.MustCompile(a.Expr(), g.U)
	res, err = core.Exist(g, g.Start(), q, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 1 {
		t.Errorf("freed-memory found %d violations, want 1", len(res.Pairs))
	}
	// The interrupts query must NOT fire: the level is restored.
	a, _ = ByName("interrupts")
	q = core.MustCompile(a.Expr(), g.U)
	res, err = core.Exist(g, g.Start(), q, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 0 {
		t.Errorf("interrupts fired on a correct program: %v", res.Pairs)
	}
}

package minic

import (
	"os"
	"slices"
	"testing"

	"rpq/internal/cfgschema"
)

// effects calls every effect MiniC lowers to a label, plus an
// interprocedural call, constant and copy assignments and a binary
// expression, so each labeling switch of Config has something to emit.
const effects = `
func helper(p) {
	deref(p);
	return p;
}

func main() {
	int f, p, q, m, u, k, r;
	k = 1;
	open(f);
	access(f);
	close(f);
	p = malloc(8);
	q = p;
	r = helper(q);
	free(r);
	acq(m);
	rel(m);
	save(f);
	change();
	restore(f);
	seteuid(u);
	r = k + u;
	exit(f);
}
`

// TestLabelsMatchSchema requires every (constructor, arity) pair MiniC
// emits, with every labeling switch on, to be in internal/cfgschema with
// minic among its emitters, so MiniC's labels cannot drift from the shared
// schema the catalog queries are written against.
func TestLabelsMatchSchema(t *testing.T) {
	driver, err := os.ReadFile("../../testdata/driver.mc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{UseSites: true, ExpLabels: true, ConstDefs: true, Interproc: true, EntryLoop: true, AssignEqualities: true}
	emitted := map[string]bool{}
	for _, src := range []string{string(driver), effects} {
		g, err := Build(src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range g.Labels() {
			_, ctor, arity, _ := l.Node(0)
			name := g.U.Ctors.Name(ctor)
			emitted[name] = true
			c, ok := cfgschema.Lookup(name)
			if !ok || !cfgschema.HasArity(name, arity) || !slices.Contains(c.Emitters, "minic") {
				t.Errorf("MiniC emits %s/%d, which cfgschema does not list for minic", name, arity)
			}
		}
	}
	// Every effect the program calls must have been lowered to its label.
	for _, name := range []string{"open", "access", "close", "malloc", "free", "deref", "lock", "unlock", "save", "change", "restore", "seteuid", "exit", "call", "ret", "exp", "entry"} {
		if !emitted[name] {
			t.Errorf("no %s label emitted", name)
		}
	}
}

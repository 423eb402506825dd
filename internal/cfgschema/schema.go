// Package cfgschema fixes the shared label schema that every program
// front end (internal/minic, internal/gofront) emits and that the analysis
// catalog (internal/queries) is written against. The schema is the
// contract that makes catalog queries frontend-agnostic: a pattern such as
// "(!def(x))* use(x)" runs unchanged on a MiniC program or a real Go
// package because every front end lowers to the same constructor names and
// arities.
//
// Before this package existed the conventions lived implicitly in each
// front end, and they had drifted: MiniC emitted the paper's acq(m)/rel(m)
// labels for locking while the Go frontend's schema mandates
// lock(m)/unlock(m). The canonical names are lock/unlock; Canonical maps
// the paper's historical spellings onto them, and the front ends accept
// acq/rel in source while emitting the canonical labels, so one locking
// query serves every language.
//
// internal/analyze's RPQ016 alphabet-coverage advisory leans on the same
// idea from the other side: it warns when a query references a constructor
// the loaded graph never emits, catching schema drift before it turns into
// a silently empty answer set.
package cfgschema

import "rpq/internal/label"

// Ctor describes one constructor of the shared CFG label schema.
type Ctor struct {
	// Name is the canonical constructor name as it appears in edge labels
	// and query patterns.
	Name string
	// Arities lists the argument counts the constructor occurs with.
	Arities []int
	// Emitters names the front ends that emit the constructor
	// ("minic", "gofront", "lts").
	Emitters []string
	// Doc says what an edge with this label means.
	Doc string
}

// Schema returns the full shared constructor table, in documentation order.
func Schema() []Ctor {
	return []Ctor{
		{"nop", []int{0}, []string{"minic", "gofront"}, "control-flow-only edge (joins, loop back-edges)"},
		{"entry", []int{0, 1}, []string{"minic", "gofront"}, "program entry self-loop (arity 0, Section 5.1 backward queries) or function entry entry(f) (arity 1, gofront's per-function roots)"},
		{"exit", []int{0, 1}, []string{"minic", "gofront"}, "function/program exit; exit(f) carries the function name in multi-function graphs"},
		{"def", []int{1, 2}, []string{"minic", "gofront"}, "definition of variable x; def(x,k) additionally records a constant value (MiniC ConstDefs)"},
		{"decl", []int{1}, []string{"gofront"}, "declaration without initialization (Go `var x T`); the uninit-use check reads a use after decl with no intervening def as a possible zero-value read"},
		{"use", []int{1, 2}, []string{"minic", "gofront"}, "read of variable x; use(x,l) carries a distinct use-site number (MiniC UseSites)"},
		{"call", []int{1}, []string{"minic", "gofront"}, "call of function f (intraprocedural step, and the interprocedural edge into f's entry)"},
		{"mcall", []int{2}, []string{"gofront"}, "method call mcall(x, m): method m invoked on receiver path x (gofront; receiver identity is syntactic)"},
		{"ret", []int{1}, []string{"minic", "gofront"}, "interprocedural return edge from f's exit back to the call site's resume vertex"},
		{"defer", []int{2}, []string{"gofront"}, "defer registration defer(f, s): deferred callee f at unique site s; the deferred effect itself is re-emitted on paths to exit"},
		{"go", []int{1}, []string{"gofront"}, "goroutine launch go(f); interprocedurally also an edge into f's entry (no matching ret)"},
		{"send", []int{1}, []string{"gofront"}, "channel send on x (panics after close(x))"},
		{"recv", []int{1}, []string{"gofront"}, "channel receive from x"},
		{"close", []int{1}, []string{"minic", "gofront"}, "closing resource x: MiniC close(f) effect calls, Go close(ch) and x.Close()"},
		{"lock", []int{1}, []string{"minic", "gofront"}, "acquire mutex m (canonical; the paper spells it acq(m), which front ends still accept in source)"},
		{"unlock", []int{1}, []string{"minic", "gofront"}, "release mutex m (canonical; paper spelling rel(m))"},
		{"rlock", []int{1}, []string{"gofront"}, "acquire read lock on m (Go RLock; deliberately distinct from lock so re-entrant read locking is not flagged)"},
		{"runlock", []int{1}, []string{"gofront"}, "release read lock on m"},
		{"open", []int{1}, []string{"minic"}, "open resource f (Section 2.2 file discipline)"},
		{"access", []int{1}, []string{"minic"}, "access resource f"},
		{"malloc", []int{1}, []string{"minic"}, "allocate pointer p"},
		{"free", []int{1}, []string{"minic"}, "free pointer p"},
		{"deref", []int{1}, []string{"minic"}, "dereference pointer p"},
		{"exp", []int{3}, []string{"minic"}, "binary expression exp(a, op, b) over two variables (available-expressions query)"},
		{"save", []int{1}, []string{"minic"}, "save interrupt level (Section 2.2 interrupt discipline)"},
		{"restore", []int{1}, []string{"minic"}, "restore interrupt level"},
		{"change", []int{0}, []string{"minic"}, "change interrupt level"},
		{"seteuid", []int{1}, []string{"minic"}, "set effective uid (Section 2.2 setuid discipline)"},
		{"state", []int{1}, []string{"lts"}, "LTS state label (Section 2.3 transformation)"},
		{"act", []int{1}, []string{"lts"}, "LTS action label"},
	}
}

// aliases maps the paper's historical constructor spellings onto the
// canonical schema names. Front ends apply it when lowering effect calls so
// old sources keep working while graphs carry one vocabulary.
var aliases = map[string]string{
	"acq": "lock",
	"rel": "unlock",
}

// Canonical returns the canonical schema name for a constructor, resolving
// paper-era aliases (acq→lock, rel→unlock); unknown names pass through.
func Canonical(name string) string {
	if c, ok := aliases[name]; ok {
		return c
	}
	return name
}

// Lookup finds a schema constructor by canonical name.
func Lookup(name string) (Ctor, bool) {
	for _, c := range Schema() {
		if c.Name == name {
			return c, true
		}
	}
	return Ctor{}, false
}

// HasArity reports whether the schema knows constructor name at the given
// arity.
func HasArity(name string, arity int) bool {
	c, ok := Lookup(name)
	if !ok {
		return false
	}
	for _, a := range c.Arities {
		if a == arity {
			return true
		}
	}
	return false
}

// Effect builds an effect-call label, mapping the name through Canonical so
// paper-era sources (acq/rel) lower to the canonical vocabulary.
func Effect(name string, args ...*label.Term) *label.Term {
	return label.App(Canonical(name), args...)
}

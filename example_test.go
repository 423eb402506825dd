package rpq_test

import (
	"fmt"
	"sort"
	"strings"

	"rpq"
	"rpq/internal/tracelog"
)

// The paper's running example: find uses of uninitialized variables.
func ExampleGraph_Exist() {
	g := rpq.NewGraph()
	g.MustAddEdge("v1", "def(a)", "v2")
	g.MustAddEdge("v2", "use(a)", "v3")
	g.MustAddEdge("v3", "use(b)", "v4")
	g.SetStart("v1")

	p := rpq.MustParsePattern("(!def(x))* use(x)")
	res, err := g.Exist(p, nil)
	if err != nil {
		panic(err)
	}
	for _, a := range res.Answers {
		fmt.Println(a)
	}
	// Output:
	// v4 {x↦b}
}

// Universal queries quantify over all paths: available expressions survive
// only when computed on every path and not killed.
func ExampleGraph_Universal() {
	g := rpq.NewGraph()
	g.MustAddEdge("s", "exp(a,plus,b)", "p1")
	g.MustAddEdge("s", "exp(a,plus,b)", "p2")
	g.MustAddEdge("p1", "def(c)", "m")
	g.MustAddEdge("p2", "def(d)", "m")
	g.SetStart("s")

	p := rpq.MustParsePattern("_* exp(x,op,y) (!(def(x)|def(y)))*")
	res, err := g.Universal(p, nil)
	if err != nil {
		panic(err)
	}
	for _, a := range res.Answers {
		if a.Vertex == "m" {
			fmt.Println(a)
		}
	}
	// Output:
	// m {x↦a, op↦plus, y↦b}
}

// Backward queries run on the reversed graph; the catalog handles the
// reversal and the post-exit start vertex automatically.
func ExampleGraph_RunAnalysis() {
	g, err := rpq.FromMiniC(`
func main() {
	int a, b;
	a = b;
	b = a;
}
`, rpq.MiniCConfig{UseSites: true, EntryLoop: true})
	if err != nil {
		panic(err)
	}
	analysis, err := rpq.AnalysisByName("uninit-uses-bwd")
	if err != nil {
		panic(err)
	}
	res, err := g.RunAnalysis(analysis, nil)
	if err != nil {
		panic(err)
	}
	for _, a := range res.Answers {
		for _, bd := range a.Bindings {
			if bd.Param == "x" {
				fmt.Println("uninitialized:", bd.Symbol)
			}
		}
	}
	// Output:
	// uninitialized: b
}

// A single universal discipline specification generates one merged
// existential query catching every kind of violation (Section 5.4).
func ExampleGraph_Violations() {
	g, err := rpq.FromMiniC(`
func main() {
	open(f);
	close(f);
	access(f);
}
`, rpq.MiniCConfig{})
	if err != nil {
		panic(err)
	}
	res, err := g.Violations("(open(f) (access(f))* close(f))*", true, nil)
	if err != nil {
		panic(err)
	}
	for _, a := range res.Answers {
		fmt.Println("violation for", a.Bindings[0].Symbol)
	}
	// Output:
	// violation for f
}

// Patterns generalize XPath over XML documents (Section 5.4).
func ExampleFromXML() {
	doc := `<a><b lang="en"><b><c/></b></b></a>`
	g, err := rpq.FromXML(strings.NewReader(doc))
	if err != nil {
		panic(err)
	}
	// A tag nested directly inside itself — beyond XPath 1.0.
	res, err := g.Exist(rpq.MustParsePattern("_* child(t) child(t)"), nil)
	if err != nil {
		panic(err)
	}
	for _, a := range res.Answers {
		fmt.Println(a)
	}
	// Output:
	// b[2] {t↦b}
}

// Algorithm variants are selected through Options; all agree on the result.
func ExampleOptions() {
	g := rpq.NewGraph()
	g.MustAddEdge("v1", "acq(m)", "v2")
	g.MustAddEdge("v2", "acq(n)", "v3")
	g.SetStart("v1")
	p := rpq.MustParsePattern("_* acq(l1) (!rel(l1))* acq(l2) _*")
	for _, algo := range []rpq.Algorithm{rpq.Basic, rpq.Memo, rpq.Precompute} {
		res, err := g.Exist(p, &rpq.Options{Algorithm: algo, Table: rpq.NestedArrays})
		if err != nil {
			panic(err)
		}
		fmt.Println(algo, res.Answers[0])
	}
	// Output:
	// basic v3 {l1↦m, l2↦n}
	// memo v3 {l1↦m, l2↦n}
	// precomp v3 {l1↦m, l2↦n}
}

// The classic data-flow analyses of Section 2.2, run through the analysis
// catalog over one MiniC program with the labeling each analysis needs.
func ExampleGraph_RunAnalysis_dataflow() {
	const program = `
int t;
func main() {
	int a, b, c, d;
	a = 5;
	b = a + 1;
	c = a + 1;
	if (b < c) {      // available until b is redefined: exp labels cover
		d = a + 1;    // expressions over two variables only
	} else {
		a = 2;
		d = t;        // t (a global) is never initialized
	}
	b = a + 1;
	use_it(d);
}
`
	for _, run := range []struct {
		analysis string
		cfg      rpq.MiniCConfig
	}{
		{"uninit-uses", rpq.MiniCConfig{}},
		{"uninit-first-uses", rpq.MiniCConfig{}},
		// The backward formulation (Section 5.1) is the fast variant of Table 1.
		{"uninit-uses-bwd", rpq.MiniCConfig{UseSites: true, EntryLoop: true}},
		{"live-variables", rpq.MiniCConfig{}},
		{"available-expressions", rpq.MiniCConfig{ExpLabels: true}},
		{"constant-folding", rpq.MiniCConfig{ConstDefs: true}},
	} {
		g, err := rpq.FromMiniC(program, run.cfg)
		if err != nil {
			panic(err)
		}
		a, err := rpq.AnalysisByName(run.analysis)
		if err != nil {
			panic(err)
		}
		res, err := g.RunAnalysis(a, nil)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s (%s, %s): %s\n", a.Name, a.Kind, a.Dir, a.Pattern)
		for i, ans := range res.Answers {
			if i == 3 {
				fmt.Printf("   ... and %d more\n", len(res.Answers)-i)
				break
			}
			fmt.Println("  ", ans)
		}
	}
	// Output:
	// uninit-uses (existential, forward): (!def(x))* use(x)
	//    main.n11 {x↦t}
	// uninit-first-uses (existential, forward): (!(def(x)|use(x)))* use(x)
	//    main.n11 {x↦t}
	// uninit-uses-bwd (existential, backward): _* use(x,l) (!def(x))* entry()
	//    main.entry {x↦t, l↦6}
	// live-variables (existential, backward): _* use(x) (!def(x))*
	//    main.entry {x↦t}
	//    main.n1 {x↦a}
	//    main.n1 {x↦t}
	//    ... and 29 more
	// available-expressions (universal, forward): _* exp(x,op,y) (!(def(x)|def(y)))*
	//    main.n8 {x↦b, op↦lt, y↦c}
	//    main.n9 {x↦b, op↦lt, y↦c}
	//    main.n10 {x↦b, op↦lt, y↦c}
	//    ... and 5 more
	// constant-folding (universal, forward): _* def(x,c) (!(def(x)|def(x,_)))*
	//    main.n1 {x↦a, c↦5}
	//    main.n2 {x↦a, c↦5}
	//    main.n3 {x↦a, c↦5}
	//    ... and 9 more
}

// Resource disciplines of Section 2.2, with witness traces as error
// traces, and the Section 5.4 extension: one universal discipline turned
// into a merged existential violation query.
func ExampleGraph_RunAnalysis_fileSafety() {
	g, err := rpq.FromMiniC(`
func main() {
	int n;
	open(config);
	n = 1;
	access(config);
	if (n) {
		close(config);
	}
	access(config);     // bug: closed on the then-path
	open(logfile);
	access(logfile);
	seteuid(1000);      // bug: logfile still open when dropping privileges
	access(scratch);    // bug: scratch was never opened
	close(logfile);
}
`, rpq.MiniCConfig{})
	if err != nil {
		panic(err)
	}
	for _, name := range []string{"file-access-violation", "file-unclosed", "setuid-security"} {
		a, err := rpq.AnalysisByName(name)
		if err != nil {
			panic(err)
		}
		res, err := g.RunAnalysis(a, &rpq.Options{Witnesses: true})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s: %s\n", a.Name, a.Pattern)
		seen := map[string]bool{}
		for _, ans := range res.Answers {
			f := ans.Bindings[0].Symbol
			if seen[f] {
				continue
			}
			seen[f] = true
			var ops []string
			for _, st := range ans.Witness {
				if st.Label != "nop()" {
					ops = append(ops, st.Label)
				}
			}
			fmt.Printf("   %s at %s: %s\n", f, ans.Vertex, strings.Join(ops, " → "))
		}
	}
	res, err := g.Violations("(open(f) (access(f))* close(f))*", true, nil)
	if err != nil {
		panic(err)
	}
	fmt.Println("violations of (open(f) (access(f))* close(f))*:")
	for _, ans := range res.Answers {
		fmt.Println("  ", ans)
	}
	// Output:
	// file-access-violation: (eps | _* close(f)) (!open(f))* access(f)
	//    config at main.n7: open('config') → def('n') → access('config') → use('n') → close('config') → access('config')
	//    scratch at main.n11: open('config') → def('n') → access('config') → use('n') → access('config') → open('logfile') → access('logfile') → seteuid(1000) → access('scratch')
	// file-unclosed: (!close(f))* open(f)
	//    config at main.entry: exit() → close('logfile') → access('scratch') → seteuid(1000) → access('logfile') → open('logfile') → access('config') → use('n') → access('config') → def('n') → open('config')
	// setuid-security: _* open(f) (!close(f))* seteuid(!0)
	//    config at main.n10: open('config') → def('n') → access('config') → use('n') → access('config') → open('logfile') → access('logfile') → seteuid(1000)
	//    logfile at main.n10: open('config') → def('n') → access('config') → use('n') → access('config') → open('logfile') → access('logfile') → seteuid(1000)
	// violations of (open(f) (access(f))* close(f))*:
	//    main.n7 {f↦config}
	//    main.n11 {f↦scratch}
	//    main.n13 {f↦config}
}

// Interprocedural analysis with parameter/return equalities (Section 5.2):
// tracking them removes the false alarm that opaque calls raise.
func ExampleFromMiniC_interproc() {
	const program = `
func fetch(handle) {
	access(handle);
	return handle;
}
func shutdown(h) {
	close(h);
	return h;
}
func main() {
	int file, alias, x;
	open(file);
	alias = fetch(file);    // alias == file
	x = shutdown(alias);    // closes the same file
}
`
	for _, interproc := range []bool{true, false} {
		g, err := rpq.FromMiniC(program, rpq.MiniCConfig{Interproc: interproc})
		if err != nil {
			panic(err)
		}
		fmt.Println("interprocedural:", interproc)
		for _, name := range []string{"file-unclosed", "file-access-violation"} {
			a, err := rpq.AnalysisByName(name)
			if err != nil {
				panic(err)
			}
			res, err := g.RunAnalysis(a, nil)
			if err != nil {
				panic(err)
			}
			fmt.Printf("   %s: %v\n", name, res.Answers)
		}
	}
	// Output:
	// interprocedural: true
	//    file-unclosed: []
	//    file-access-violation: []
	// interprocedural: false
	//    file-unclosed: [main.entry {f↦main.file}]
	//    file-access-violation: []
}

// The concurrency queries of Section 2.2: which variables each lock
// protects on all paths (universal), and which lock is acquired while
// another is held (existential deadlock avoidance).
func ExampleGraph_RunAnalysis_lockDiscipline() {
	g, err := rpq.FromMiniC(`
func main() {
	int shared, other;
	acq(m1);
	access(shared);
	acq(m2);           // m2 acquired while m1 held
	access(other);
	rel(m2);
	access(shared);
	rel(m1);
	acq(m1);
	access(shared);    // shared is always accessed under m1
	acq(m2);           // consistent order: always m1 before m2
	rel(m2);
	rel(m1);
}
`, rpq.MiniCConfig{})
	if err != nil {
		panic(err)
	}
	for _, name := range []string{"locking-discipline", "deadlock-avoidance"} {
		a, err := rpq.AnalysisByName(name)
		if err != nil {
			panic(err)
		}
		res, err := g.RunAnalysis(a, nil)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s (%s): %s\n", a.Name, a.Kind, a.Pattern)
		seen := map[string]bool{}
		for _, ans := range res.Answers {
			// The empty path to the entry matches vacuously under any
			// substitution.
			b := strings.TrimPrefix(ans.String(), ans.Vertex+" ")
			if ans.Vertex != "main.entry" && !seen[b] {
				seen[b] = true
				fmt.Printf("   %s first at %s\n", b, ans.Vertex)
			}
		}
	}
	// Output:
	// locking-discipline (universal): ((!access(x))* lock(l) (!unlock(l))*)*
	//    {x↦shared, l↦m1} first at main.n1
	//    {x↦other, l↦m1} first at main.n1
	//    {x↦other, l↦m2} first at main.n3
	// deadlock-avoidance (existential): _* lock(l1) (!unlock(l1))* lock(l2) _*
	//    {l1↦m1, l2↦m2} first at main.ret
}

// Deadlock and livelock detection on a labeled transition system via the
// Section 2.3 transformation: a sender/receiver protocol where state 5
// deadlocks and states 2 and 3 exchange internal actions forever.
func ExampleFromAUT() {
	g, err := rpq.FromAUT(strings.NewReader(`des (0, 9, 6)
(0, "send", 1)
(1, "i", 2)
(2, "i", 3)
(3, "i", 2)
(2, "recv", 4)
(4, "ack", 0)
(4, "timeout", 5)
(1, "nack", 0)
(3, "giveup", 5)
`), false)
	if err != nil {
		panic(err)
	}
	for _, c := range []struct {
		analysis, verdict string
		bound             bool
	}{
		// States the deadlock query binds have an outgoing action; the
		// livelock query binds the states on a cycle of internal actions.
		{"lts-deadlock", "deadlocks", false},
		{"lts-livelock", "livelocks", true},
	} {
		a, err := rpq.AnalysisByName(c.analysis)
		if err != nil {
			panic(err)
		}
		res, err := g.RunAnalysis(a, nil)
		if err != nil {
			panic(err)
		}
		bound := map[string]bool{}
		for _, ans := range res.Answers {
			bound[ans.Binding("s")] = true
		}
		fmt.Printf("%s: %s\n", a.Name, a.Pattern)
		for i := 0; i < 6; i++ {
			if s := fmt.Sprintf("s%d", i); bound[s] == c.bound {
				fmt.Println("  ", s, c.verdict)
			}
		}
	}
	// Output:
	// lts-deadlock: _* state(s) act(_)
	//    s5 deadlocks
	// lts-livelock: _* state(s) act('i')+ state(s)
	//    s2 livelocks
	//    s3 livelocks
}

// Audit logs are linear graphs; parameters correlate the interleaved events
// of each user, as intrusion detection over system logs needs (Sekar and
// Uppuluri, cited in the paper's related work).
func ExampleWrapGraph_intrusion() {
	g, err := tracelog.ReadString(`
login(alice)
login(mallory)
open(passwd, alice)
read(passwd, alice)
close(passwd, alice)
open(shadow, mallory)
su(root, mallory)
exec(shell, mallory)
close(shadow, mallory)
logout(alice)
download(rootkit, mallory)
exec(rootkit, mallory)
logout(mallory)
`)
	if err != nil {
		panic(err)
	}
	audit := rpq.WrapGraph(g)
	for _, sig := range []string{
		"_* open('shadow', u) (!close('shadow', u))* su('root', u)",
		"_* open(f, u) (!close(f, u))* exec(_, u)",
		"_* download(x, u) _* exec(x, u)",
		"_* login(u) (!logout(u))*",
	} {
		res, err := audit.Exist(rpq.MustParsePattern(sig), &rpq.Options{Algorithm: rpq.Memo})
		if err != nil {
			panic(err)
		}
		// The latest hit per substitution, printed in event order.
		latest := map[string]int{}
		for _, ans := range res.Answers {
			idx, _ := tracelog.EventIndex(ans.Vertex)
			b := strings.TrimPrefix(ans.String(), ans.Vertex+" ")
			latest[b] = max(latest[b], idx)
		}
		hits := make([]string, 0, len(latest))
		for b := range latest {
			hits = append(hits, b)
		}
		sort.Slice(hits, func(i, j int) bool {
			a, b := hits[i], hits[j]
			return latest[a] < latest[b] || latest[a] == latest[b] && a < b
		})
		fmt.Println(sig)
		for _, b := range hits {
			fmt.Printf("   %s at event %d\n", b, latest[b])
		}
	}
	// Output:
	// _* open('shadow', u) (!close('shadow', u))* su('root', u)
	//    {u↦mallory} at event 7
	// _* open(f, u) (!close(f, u))* exec(_, u)
	//    {f↦shadow, u↦mallory} at event 8
	// _* download(x, u) _* exec(x, u)
	//    {x↦rootkit, u↦mallory} at event 12
	// _* login(u) (!logout(u))*
	//    {u↦alice} at event 9
	//    {u↦mallory} at event 12
}

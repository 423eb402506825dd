package label

import (
	"math/rand"
	"testing"
)

// env builds a compiled pattern label and ground edge label sharing one
// universe and parameter space.
type env struct {
	u  *Universe
	ps *ParamSpace
}

func newEnv() *env { return &env{u: NewUniverse(), ps: &ParamSpace{}} }

func (e *env) tl(s string) *CTerm {
	return MustCompile(MustParse(s, PatternMode), e.u, e.ps)
}

func (e *env) el(s string) Ground {
	r, err := AppendGround(nil, MustParse(s, GroundMode), e.u)
	if err != nil {
		panic(err)
	}
	return r
}

func (e *env) subst(pairs ...string) []int32 {
	s := make([]int32, e.ps.Len())
	for i := range s {
		s[i] = NoSym
	}
	for i := 0; i+1 < len(pairs); i += 2 {
		p, ok := e.ps.Lookup(pairs[i])
		if !ok {
			panic("unknown parameter " + pairs[i])
		}
		s[p] = e.u.Syms.Intern(pairs[i+1])
	}
	return s
}

func TestMatchADPositive(t *testing.T) {
	e := newEnv()
	tl := e.tl("def(x)")
	m := MatchAD(tl, e.el("def(a)"))
	if !m.OK {
		t.Fatalf("def(x) should match def(a)")
	}
	if len(m.Agree) != 1 || len(m.Disagrees) != 0 {
		t.Fatalf("agree/disagree = %v/%v, want one agree binding", m.Agree, m.Disagrees)
	}
	x, _ := e.ps.Lookup("x")
	a, _ := e.u.Syms.Lookup("a")
	if m.Agree[0] != (Binding{Param: x, Sym: a}) {
		t.Errorf("agree = %v, want x↦a", m.Agree)
	}

	if MatchAD(tl, e.el("use(a)")).OK {
		t.Errorf("def(x) matched use(a)")
	}
	if MatchAD(tl, e.el("def(a,5)")).OK {
		t.Errorf("def(x) matched def(a,5): arity should matter")
	}
}

func TestMatchADRepeatedParam(t *testing.T) {
	e := newEnv()
	tl := e.tl("eq(x,x)")
	if !MatchAD(tl, e.el("eq(a,a)")).OK {
		t.Errorf("eq(x,x) should match eq(a,a)")
	}
	if MatchAD(tl, e.el("eq(a,b)")).OK {
		t.Errorf("eq(x,x) matched eq(a,b)")
	}
}

func TestMatchADWildcard(t *testing.T) {
	e := newEnv()
	if !MatchAD(e.tl("_"), e.el("def(a)")).OK {
		t.Errorf("_ should match anything")
	}
	if !MatchAD(e.tl("def(_)"), e.el("def(a)")).OK {
		t.Errorf("def(_) should match def(a)")
	}
	if MatchAD(e.tl("def(_)"), e.el("use(a)")).OK {
		t.Errorf("def(_) matched use(a)")
	}
	m := MatchAD(e.tl("use(x,_)"), e.el("use(a,17)"))
	if !m.OK || len(m.Agree) != 1 {
		t.Errorf("use(x,_) vs use(a,17): %+v", m)
	}
}

func TestMatchADGroundSymbols(t *testing.T) {
	e := newEnv()
	if !MatchAD(e.tl("def('a')"), e.el("def(a)")).OK {
		t.Errorf("def('a') should match def(a)")
	}
	if MatchAD(e.tl("def('a')"), e.el("def(b)")).OK {
		t.Errorf("def('a') matched def(b)")
	}
	// Parameters only instantiate to symbols, not nested applications.
	if MatchAD(e.tl("f(x)"), e.el("f(g(a))")).OK {
		t.Errorf("parameter matched a constructor application")
	}
	// But nested pattern applications match nested ground applications.
	if !MatchAD(e.tl("f(g(x))"), e.el("f(g(a))")).OK {
		t.Errorf("f(g(x)) should match f(g(a))")
	}
}

func TestMatchADNegationGround(t *testing.T) {
	e := newEnv()
	// Whole-label negation with no parameters: pure check.
	if MatchAD(e.tl("!def('a')"), e.el("def(a)")).OK {
		t.Errorf("!def('a') matched def(a)")
	}
	if !MatchAD(e.tl("!def('a')"), e.el("def(b)")).OK {
		t.Errorf("!def('a') should match def(b)")
	}
	if !MatchAD(e.tl("!def('a')"), e.el("use(a)")).OK {
		t.Errorf("!def('a') should match use(a)")
	}
	// Argument-level ground negation (the seteuid example, Section 2.2).
	if MatchAD(e.tl("seteuid(!0)"), e.el("seteuid(0)")).OK {
		t.Errorf("seteuid(!0) matched seteuid(0)")
	}
	if !MatchAD(e.tl("seteuid(!0)"), e.el("seteuid(1)")).OK {
		t.Errorf("seteuid(!0) should match seteuid(1)")
	}
	// Negated wildcard never matches.
	if MatchAD(e.tl("!_"), e.el("def(a)")).OK {
		t.Errorf("!_ matched def(a)")
	}
	if !MatchAD(e.tl("!def(_)"), e.el("use(a)")).OK {
		t.Errorf("!def(_) should match use(a)")
	}
	if MatchAD(e.tl("!def(_)"), e.el("def(a)")).OK {
		t.Errorf("!def(_) matched def(a)")
	}
}

func TestMatchADNegationWithParam(t *testing.T) {
	e := newEnv()
	// The paper's running example: match(!def(x), def(a)) — matches under
	// {x↦b} for every b ≠ a, represented as disagree = {x↦a}.
	m := MatchAD(e.tl("!def(x)"), e.el("def(a)"))
	if !m.OK {
		t.Fatalf("!def(x) vs def(a) should be matchable")
	}
	if len(m.Agree) != 0 || len(m.Disagrees) != 1 || len(m.Disagrees[0]) != 1 {
		t.Fatalf("agree/disagree = %v/%v, want disagree {x↦a}", m.Agree, m.Disagrees)
	}
	x, _ := e.ps.Lookup("x")
	a, _ := e.u.Syms.Lookup("a")
	if m.Disagrees[0][0] != (Binding{Param: x, Sym: a}) {
		t.Errorf("disagree = %v, want x↦a", m.Disagrees)
	}
	// Constructor mismatch inside the negation: matches with no constraint.
	m = MatchAD(e.tl("!def(x)"), e.el("use(a)"))
	if !m.OK || len(m.Disagrees) != 0 {
		t.Errorf("!def(x) vs use(a): %+v, want ok with empty disagree", m)
	}
}

func TestMatchADArgLevelNegParam(t *testing.T) {
	e := newEnv()
	// The paper's example: match(def(x,!c), def(a,5)) = {({x↦a}, {c↦5})}.
	m := MatchAD(e.tl("def(x,!c)"), e.el("def(a,5)"))
	if !m.OK || len(m.Agree) != 1 || len(m.Disagrees) != 1 {
		t.Fatalf("def(x,!c) vs def(a,5): %+v", m)
	}
	x, _ := e.ps.Lookup("x")
	c, _ := e.ps.Lookup("c")
	a, _ := e.u.Syms.Lookup("a")
	five, _ := e.u.Syms.Lookup("5")
	if m.Agree.Get(x) != a || m.Disagrees[0].Get(c) != five {
		t.Errorf("got agree %v disagree %v", m.Agree, m.Disagrees)
	}
}

func TestMatchADNegBodyInternalConflict(t *testing.T) {
	e := newEnv()
	// !eq(x,x) vs eq(a,b): the body can never match, so the negation holds
	// unconditionally.
	m := MatchAD(e.tl("!eq(x,x)"), e.el("eq(a,b)"))
	if !m.OK || len(m.Disagrees) != 0 {
		t.Errorf("!eq(x,x) vs eq(a,b): %+v, want unconditional match", m)
	}
	// !eq(x,x) vs eq(a,a): disagree {x↦a} after removing the redundant
	// duplicate binding.
	m = MatchAD(e.tl("!eq(x,x)"), e.el("eq(a,a)"))
	if !m.OK || len(m.Disagrees) != 1 || len(m.Disagrees[0]) != 1 {
		t.Errorf("!eq(x,x) vs eq(a,a): %+v, want one disagree binding", m)
	}
}

func TestMatchGroundAgainstAD(t *testing.T) {
	// Property: for AD-compatible labels and full substitutions θ,
	// MatchGround(tl, el, θ) holds iff θ ⊇-consistent with Agree and θ
	// contradicts some Disagree binding (or Disagree is empty).
	e := newEnv()
	labels := []*CTerm{
		e.tl("def(x)"),
		e.tl("!def(x)"),
		e.tl("def(x,!c)"),
		e.tl("use(x,y)"),
		e.tl("_"),
		e.tl("!def('a')"),
		e.tl("f(g(x),!h(y))"),
	}
	edges := []Ground{
		e.el("def(a)"), e.el("def(b)"), e.el("use(a,b)"), e.el("def(a,5)"),
		e.el("f(g(a),h(b))"), e.el("f(g(b),h(a))"), e.el("use(a)"),
	}
	syms := e.u.AllSymbols()
	pars := e.ps.Len()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		tl := labels[rng.Intn(len(labels))]
		el := edges[rng.Intn(len(edges))]
		// Random full substitution.
		th := make([]int32, pars)
		for i := range th {
			th[i] = syms[rng.Intn(len(syms))]
		}
		want := MatchGround(tl, el, th)
		m := MatchAD(tl, el)
		got := false
		if m.OK {
			got = true
			for _, b := range m.Agree {
				if th[b.Param] != b.Sym {
					got = false
				}
			}
			for _, d := range m.Disagrees {
				if !got {
					break
				}
				contra := false
				for _, b := range d {
					if th[b.Param] != b.Sym {
						contra = true
					}
				}
				got = got && contra
			}
		}
		if got != want {
			t.Fatalf("trial %d: tl=%s el=%s θ=%v: AD says %v, ground says %v (match %+v)",
				trial, tl.Format(e.u, e.ps), el.Format(e.u), th, got, want, m)
		}
	}
}

func TestMatchGroundUnboundParam(t *testing.T) {
	e := newEnv()
	tl := e.tl("def(x)")
	el := e.el("def(a)")
	if MatchGround(tl, el, e.subst()) {
		t.Errorf("MatchGround with unbound parameter should not match")
	}
	if !MatchGround(tl, el, e.subst("x", "a")) {
		t.Errorf("MatchGround with x↦a should match def(a)")
	}
	if MatchGround(tl, el, e.subst("x", "b")) {
		t.Errorf("MatchGround with x↦b matched def(a)")
	}
	// Negation body with unbound parameter: θ(tl) not ground, no match.
	if MatchGround(e.tl("!use(y)"), el, e.subst("x", "a")) {
		t.Errorf("negation over unbound parameter should not match")
	}
}

func TestCoveredBy(t *testing.T) {
	e := newEnv()
	tl := e.tl("use(x,y)")
	if CoveredBy(tl, e.subst("x", "a")) {
		t.Errorf("x-only substitution covers use(x,y)")
	}
	if !CoveredBy(tl, e.subst("x", "a", "y", "b")) {
		t.Errorf("full substitution does not cover use(x,y)")
	}
}

func TestBindings(t *testing.T) {
	var bs Bindings
	if !bs.bind(1, 10) || !bs.bind(0, 20) || !bs.bind(1, 10) {
		t.Fatalf("consistent binds failed")
	}
	if bs.bind(1, 11) {
		t.Fatalf("conflicting bind succeeded")
	}
	bs.normalize()
	if bs[0].Param != 0 || bs[1].Param != 1 {
		t.Errorf("normalize did not sort: %v", bs)
	}
	if bs.Get(0) != 20 || bs.Get(1) != 10 || bs.Get(9) != NoSym {
		t.Errorf("Get misbehaves: %v", bs)
	}
	cl := bs.Clone()
	cl[0].Sym = 99
	if bs[0].Sym == 99 {
		t.Errorf("Clone aliases the original")
	}
	// normalize sorts fragments of any order.
	rng := rand.New(rand.NewSource(5))
	for n := 0; n < 8; n++ {
		perm := rng.Perm(n)
		bs := make(Bindings, n)
		for i, p := range perm {
			bs[i] = Binding{Param: int32(p), Sym: int32(10 + p)}
		}
		bs.normalize()
		for i, b := range bs {
			if b != (Binding{Param: int32(i), Sym: int32(10 + i)}) {
				t.Fatalf("normalize(%v) = %v", perm, bs)
			}
		}
	}
}

func TestCTermClassification(t *testing.T) {
	e := newEnv()
	cases := []struct {
		src  string
		ad   bool
		negP int
	}{
		{"def(x)", true, 0},
		{"!def(x)", true, 1},
		{"def(x,!c)", true, 1},
		{"!def('a')", true, 0},
		{"f(!x,!y)", false, 2},
		{"!(!def(x))", false, 2},
		{"_", true, 0},
	}
	for _, c := range cases {
		tl := e.tl(c.src)
		if got := tl.ADCompatible(); got != c.ad {
			t.Errorf("%s: ADCompatible = %v, want %v", c.src, got, c.ad)
		}
		if got := tl.NumNegWithParams(); got != c.negP {
			t.Errorf("%s: NumNegWithParams = %d, want %d", c.src, got, c.negP)
		}
	}
}

// TestMatchGroundUnderSubst: enumeration matches a pattern label under θ
// rather than a ground copy of it, so a label whose negated body θ leaves
// unbound matches nothing, and under a full θ it matches exactly what
// θ(tl) does.
func TestMatchGroundUnderSubst(t *testing.T) {
	e := newEnv()
	tl := e.tl("use(x,!def(y))")
	el := e.el("use(a,q)")
	if MatchGround(tl, el, e.subst("x", "a")) {
		t.Errorf("use(x,!def(y)) under {x↦a} should not match: θ leaves y unbound")
	}
	if !MatchGround(tl, el, e.subst("x", "a", "y", "b")) {
		t.Errorf("use(x,!def(y)) under {x↦a, y↦b} should match use(a,q)")
	}
	if MatchGround(tl, e.el("use(b,q)"), e.subst("x", "a", "y", "b")) {
		t.Errorf("use(x,!def(y)) under {x↦a, y↦b} should not match use(b,q)")
	}
	if MatchGround(tl, e.el("use(a,def(b))"), e.subst("x", "a", "y", "b")) {
		t.Errorf("use(x,!def(y)) under {x↦a, y↦b} should not match use(a,def(b))")
	}
}

func TestCTermKeyDistinguishes(t *testing.T) {
	e := newEnv()
	pairs := [][2]string{
		{"def(x)", "def(y)"},
		{"def(x)", "use(x)"},
		{"def(x)", "!def(x)"},
		{"def('a')", "def(x)"},
		{"def(_)", "def(x)"},
		{"f(g(x))", "f(x)"},
	}
	for _, p := range pairs {
		a, b := e.tl(p[0]), e.tl(p[1])
		if a.Key() == b.Key() {
			t.Errorf("keys of %s and %s collide: %q", p[0], p[1], a.Key())
		}
	}
	if e.tl("def(x)").Key() != e.tl("def( x )").Key() {
		t.Errorf("equal labels have different keys")
	}
}

func TestPositivePositions(t *testing.T) {
	e := newEnv()
	tl := e.tl("use(x,!def(y))")
	pos := map[[3]int32]bool{}
	tl.PositivePositions(func(p, ctor int32, arg int) {
		pos[[3]int32{p, ctor, int32(arg)}] = true
	})
	useC, _ := e.u.Ctors.Lookup("use")
	x, _ := e.ps.Lookup("x")
	if !pos[[3]int32{x, useC, 0}] {
		t.Errorf("x at use/0 not reported positively: %v", pos)
	}
	if len(pos) != 1 {
		t.Errorf("expected exactly one positive position, got %v", pos)
	}
	all := 0
	tl.AllPositions(func(p, ctor int32, arg int) { all++ })
	if all != 2 {
		t.Errorf("AllPositions reported %d, want 2", all)
	}
}

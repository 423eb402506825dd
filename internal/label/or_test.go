package label

import (
	"math/rand"
	"testing"
)

func TestParseNegatedAlternation(t *testing.T) {
	tm, err := Parse("!(def(x)|use(x))", PatternMode)
	if err != nil {
		t.Fatal(err)
	}
	want := Neg(Or(App("def", Param("x")), App("use", Param("x"))))
	if !tm.Equal(want) {
		t.Fatalf("Parse = %s, want %s", tm, want)
	}
	// Round-trips through String.
	back := MustParse(tm.String(), PatternMode)
	if !back.Equal(tm) {
		t.Fatalf("round trip: %s vs %s", back, tm)
	}
}

func TestOrValidate(t *testing.T) {
	if err := Neg(Or(App("a"), App("b"))).Validate(); err != nil {
		t.Errorf("valid negated alternation rejected: %v", err)
	}
	if err := Or(App("a")).Validate(); err == nil {
		t.Errorf("single-alternative alternation accepted")
	}
	if err := Or(App("a"), Sym("b")).Validate(); err == nil {
		t.Errorf("alternation over a bare symbol accepted")
	}
	if err := Or(App("a"), Neg(App("b"))).Validate(); err == nil {
		t.Errorf("alternation over a negation accepted")
	}
}

func TestMatchADNegatedAlternation(t *testing.T) {
	e := newEnv()
	// The first-use pattern's label: !(def(x)|use(x)).
	tl := e.tl("!(def(x)|use(x))")
	if !tl.ADCompatible() {
		t.Fatalf("!(def(x)|use(x)) should be AD-compatible")
	}
	m := MatchAD(tl, e.el("def(a)"))
	if !m.OK || len(m.Disagrees) != 1 {
		t.Fatalf("vs def(a): %+v, want one disagree set", m)
	}
	m = MatchAD(tl, e.el("assign(a)"))
	if !m.OK || len(m.Disagrees) != 0 {
		t.Fatalf("vs assign(a): %+v, want unconditional match", m)
	}
	// An edge matching both alternatives yields two disagree sets.
	tl2 := e.tl("!(f(x,_)|f(_,x))")
	m = MatchAD(tl2, e.el("f(a,b)"))
	if !m.OK || len(m.Disagrees) != 2 {
		t.Fatalf("!(f(x,_)|f(_,x)) vs f(a,b): %+v, want two disagree sets", m)
	}
	if ps := m.DisagreeParams(); len(ps) != 1 {
		t.Fatalf("DisagreeParams = %v, want the single parameter x", ps)
	}
	// A ground alternative that matches kills the label.
	tl3 := e.tl("!(f('a')|g(x))")
	if MatchAD(tl3, e.el("f(a)")).OK {
		t.Errorf("!(f('a')|g(x)) matched f(a)")
	}
	if !MatchAD(tl3, e.el("f(b)")).OK {
		t.Errorf("!(f('a')|g(x)) should match f(b)")
	}
}

func TestMatchGroundOrAgainstAD(t *testing.T) {
	// Same AD-vs-ground agreement property as TestMatchGroundAgainstAD, but
	// exercising negated alternations.
	e := newEnv()
	labels := []*CTerm{
		e.tl("!(def(x)|use(x))"),
		e.tl("!(f(x,_)|f(_,x))"),
		e.tl("!(f('a')|g(x))"),
		e.tl("use(y,!(f(x)|g(x)))"),
	}
	edges := []Ground{
		e.el("def(a)"), e.el("use(b)"), e.el("f(a,b)"), e.el("f(a)"),
		e.el("g(b)"), e.el("use(a,f(b))"), e.el("use(b,g(a))"), e.el("h(a)"),
	}
	syms := e.u.AllSymbols()
	pars := e.ps.Len()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 3000; trial++ {
		tl := labels[rng.Intn(len(labels))]
		el := edges[rng.Intn(len(edges))]
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
			t.Fatalf("trial %d: tl=%s el=%s θ=%v: AD %v, ground %v (%+v)",
				trial, tl.Format(e.u, e.ps), el.Format(e.u), th, got, want, m)
		}
	}
}

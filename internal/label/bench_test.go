package label

import "testing"

func benchEnv() (*Universe, *ParamSpace, map[string]*CTerm, map[string]Ground) {
	u := NewUniverse()
	ps := &ParamSpace{}
	tls, els := map[string]*CTerm{}, map[string]Ground{}
	for _, s := range []string{
		"def(x)", "!def(x)", "use(x,l)", "!(def(x)|use(x,_))", "_",
		"exp(x,op,y)", "f(g(x),!h(y))",
	} {
		tls[s] = MustCompile(MustParse(s, PatternMode), u, ps)
	}
	for _, s := range []string{"def(a)", "use(a,17)", "exp(a,plus,b)", "nop()", "f(g(a),h(b))"} {
		r, err := AppendGround(nil, MustParse(s, GroundMode), u)
		if err != nil {
			panic(err)
		}
		els[s] = r
	}
	return u, ps, tls, els
}

func BenchmarkMatchADPositive(b *testing.B) {
	_, _, tls, els := benchEnv()
	tl, el := tls["def(x)"], els["def(a)"]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !MatchAD(tl, el).OK {
			b.Fatal("no match")
		}
	}
}

func BenchmarkMatchADNegation(b *testing.B) {
	_, _, tls, els := benchEnv()
	tl, el := tls["!def(x)"], els["def(a)"]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !MatchAD(tl, el).OK {
			b.Fatal("no match")
		}
	}
}

func BenchmarkMatchADNegatedAlternation(b *testing.B) {
	_, _, tls, els := benchEnv()
	tl, el := tls["!(def(x)|use(x,_))"], els["exp(a,plus,b)"]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !MatchAD(tl, el).OK {
			b.Fatal("no match")
		}
	}
}

func BenchmarkMatchGroundDeep(b *testing.B) {
	u, ps, tls, els := benchEnv()
	tl, el := tls["f(g(x),!h(y))"], els["f(g(a),h(b))"]
	th := make([]int32, ps.Len())
	for i := range th {
		th[i] = 0
	}
	x, _ := ps.Lookup("x")
	y, _ := ps.Lookup("y")
	a, _ := u.Syms.Lookup("a")
	c := u.Syms.Intern("c")
	th[x], th[y] = a, c
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !MatchGround(tl, el, th) {
			b.Fatal("no match")
		}
	}
}

func BenchmarkCompile(b *testing.B) {
	t := MustParse("!(def(x)|use(x,_))", PatternMode)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		u := NewUniverse()
		ps := &ParamSpace{}
		if _, err := Compile(t, u, ps); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseLabel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse("_* ", PatternMode); err == nil {
			b.Fatal("trailing should fail")
		}
		if _, err := Parse("!(def(x)|use(x,_))", PatternMode); err != nil {
			b.Fatal(err)
		}
	}
}

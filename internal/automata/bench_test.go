package automata

import (
	"testing"

	"rpq/internal/label"
	"rpq/internal/pattern"
)

func BenchmarkFromPattern(b *testing.B) {
	e := pattern.MustParse("(eps | _* close(f)) (!open(f))* access(f)")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		u := label.NewUniverse()
		ps := &label.ParamSpace{}
		if _, err := FromPattern(e, u, ps); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeterminize(b *testing.B) {
	u := label.NewUniverse()
	ps := &label.ParamSpace{}
	n := MustFromPattern(pattern.MustParse("_* def(x,c) (!(def(x)|def(x,_)))*"), u, ps)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Determinize(n)
	}
}

func BenchmarkDeterminizeGround(b *testing.B) {
	e := newEnv()
	n := e.nfa("(!def('v7'))* use('v7',_)")
	// An alphabet the size of a mid-sized program's distinct labels.
	var alphabet []label.Ground
	for i := 0; i < 200; i++ {
		alphabet = append(alphabet, e.el(labelName(i)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DeterminizeGround(n, alphabet, nil)
	}
}

func labelName(i int) string {
	switch i % 3 {
	case 0:
		return "def(v" + itoa(i/3) + ")"
	case 1:
		return "use(v" + itoa(i/3) + "," + itoa(i) + ")"
	default:
		return "nop" + itoa(i) + "()"
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func BenchmarkComplete(b *testing.B) {
	e := newEnv()
	d := Determinize(e.nfa("(!def(x))* use(x,_)"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Complete(d)
	}
}

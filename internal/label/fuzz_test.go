package label

import "testing"

// FuzzParseLabel checks the label parser on arbitrary input, in both
// modes: Parse and ParsePrefix never panic; a parsed term prints to text
// that parses back to an equal term; and a parsed ground label, interned
// into a slab as a graph interns it, formats back to that same text.
func FuzzParseLabel(f *testing.F) {
	for _, s := range []string{
		"def(x)", "!def(x)", "use(x,_)", "f(!c,'a')", "seteuid(!0)", "_", "exit()",
		"f(g(x),h('b',y))", "!(def(x)|use(x))", "!(!f())", "def(a)", "use(a,17)",
		"f(g(a),h(b))", "mcall(p.F.x, Close)", "f('')", "nop", "f(007)",
		"f(", "!", "'a'", "f(a|b)", "_x(y)",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		for _, mode := range []ParseMode{GroundMode, PatternMode} {
			_, _, _ = ParsePrefix(s, mode) // must not panic; errors are fine
			tm, err := Parse(s, mode)
			if err != nil {
				continue
			}
			text := tm.String()
			back, err := Parse(text, mode)
			if err != nil {
				t.Fatalf("%q parses, but its print %q does not (mode %d): %v", s, text, mode, err)
			}
			if !back.Equal(tm) {
				t.Fatalf("%q prints as %q, which parses to %s (mode %d)", s, text, back, mode)
			}
			if mode != GroundMode {
				continue
			}
			u := NewUniverse()
			var slab Slab
			rec, err := AppendGround(nil, tm, u)
			if err != nil {
				t.Fatalf("ground label %q: %v", s, err)
			}
			if got := slab.Label(slab.Intern(rec)).Format(u); got != text {
				t.Fatalf("ground label %q formats from the slab as %q, want %q", s, got, text)
			}
		}
	})
}

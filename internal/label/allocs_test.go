//go:build !race

package label

import "testing"

// TestMatchADIntoAllocs guards the unmemoized matcher: once a Match has
// seen a sequence of label pairs, matching the same sequence into it again
// reuses its storage and does not allocate. Race instrumentation changes
// allocation counts, hence the build tag.
func TestMatchADIntoAllocs(t *testing.T) {
	e := newEnv()
	tls, els := matchCorpus(e)
	var m Match
	all := func() {
		for _, tl := range tls {
			for _, el := range els {
				MatchADInto(&m, tl, el)
			}
		}
	}
	all()
	if n := testing.AllocsPerRun(20, all); n != 0 {
		t.Errorf("MatchADInto into a warmed Match: %v allocs per pass, want 0", n)
	}
}

// TestInternGroundAllocs pins the cost of interning one edge label, which
// every front end pays per label: encoding a two-symbol label whose names
// the universe holds into a reused record, and finding it in a slab that
// holds it, allocate nothing. (Compiling it to a pointer tree cost 8
// allocations: three nodes, the argument slice and the canonical keys.)
func TestInternGroundAllocs(t *testing.T) {
	u := NewUniverse()
	tm := App("mcall", Sym("p.F.x"), Sym("Close"))
	var s Slab
	rec, err := AppendGround(nil, tm, u)
	if err != nil {
		t.Fatal(err)
	}
	id := s.Intern(rec)
	n := testing.AllocsPerRun(100, func() {
		rec, _ = AppendGround(rec[:0], tm, u)
		if s.Intern(rec) != id {
			t.Fatal("the label was interned twice")
		}
	})
	if n != 0 {
		t.Errorf("encoding and interning a known label: %v allocs, want 0", n)
	}
}

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

// compileGroundAllocs is the allocation count of compiling a two-symbol
// edge label on go1.24, linux/amd64: three nodes, the argument slice and
// the nodes' canonical keys. Boxing each node's parameter set for sorting
// made it 11.
const compileGroundAllocs = 8

// TestCompileGroundAllocs pins the cost of compiling one edge label, which
// every front end pays per distinct label.
func TestCompileGroundAllocs(t *testing.T) {
	u := NewUniverse()
	tm := App("mcall", Sym("p.F.x"), Sym("Close"))
	n := testing.AllocsPerRun(100, func() {
		if _, err := CompileGround(tm, u); err != nil {
			t.Fatal(err)
		}
	})
	if n > compileGroundAllocs {
		t.Errorf("CompileGround: %v allocs, want at most %d", n, compileGroundAllocs)
	}
}

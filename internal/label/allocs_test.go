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

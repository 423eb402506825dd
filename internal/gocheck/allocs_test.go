//go:build !race

package gocheck

import (
	"path/filepath"
	"testing"
)

// runAllocsBudget is the pinned allocation count of one Run of the whole
// catalog over benchmod with one build worker: 3,322 on go1.24,
// linux/amd64, plus under 1% slack. Edge labels compiled to pointer trees
// with string keys cost 4,066; a heap Match per successful memo
// miss, pointer memo rows and per-substitution hash-table keys cost 5,790;
// a full lint per check (compile, cost estimate, domains) and a domain
// table rebuilt from every label per query 7,842; string-keyed front-end
// units compiled per edge 9,393; a Match per failed memo miss, a keyset
// per reached base and re-interned vertex names per graph copy about
// 11,100; lowering the sources twice, once per graph, about 15,200. A
// rise means the front end or the checks grew; lower it when a change
// makes the path leaner.
const runAllocsBudget = 3350

// TestRunAllocs guards the rpqcheck pass: lowering, linking and every
// check's solve over benchmod must stay within runAllocsBudget
// allocations. Race instrumentation changes allocation counts, hence the
// build tag.
func TestRunAllocs(t *testing.T) {
	patterns := []string{filepath.Join(fixtures, "benchmod") + "/..."}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Run(patterns, Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per run", allocs)
	if allocs > runAllocsBudget {
		t.Errorf("%.0f allocations per run, budget %d", allocs, runAllocsBudget)
	}
}

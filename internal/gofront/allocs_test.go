//go:build !race

package gofront

import (
	"path/filepath"
	"testing"
)

// loadAllocsBudget is the pinned allocation count of one Load of benchmod
// with one worker plus its Linked copy: 2,069 on go1.24, linux/amd64, plus
// under 1% slack. Labels compiled to pointer trees with string keys cost
// 2,823; string-keyed units, compiled per edge, 4,284. A rise means the
// parser use, the unit builder or the merge grew; lower it when a change
// makes them leaner.
const loadAllocsBudget = 2090

// TestLoadAllocs guards the front end's allocation count. Race
// instrumentation changes allocation counts, hence the build tag.
func TestLoadAllocs(t *testing.T) {
	dirs := []string{filepath.Join(fixtures, "benchmod") + "/..."}
	allocs := testing.AllocsPerRun(5, func() {
		p, err := Load(dirs, Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Linked(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per load", allocs)
	if allocs > loadAllocsBudget {
		t.Errorf("%.0f allocations per load, budget %d", allocs, loadAllocsBudget)
	}
}

//go:build !race

package graph

import (
	"strconv"
	"testing"
)

// TestGrowAllocs: a graph that reserved room for its vertices adds them
// without regrowing its vertex table or adjacency, so adding them
// allocates nothing. Race instrumentation changes allocation counts, hence
// the build tag.
func TestGrowAllocs(t *testing.T) {
	names := make([]string, 1000)
	for i := range names {
		names[i] = "v" + strconv.Itoa(i)
	}
	build := func(add bool) func() {
		return func() {
			g := New()
			g.Grow(len(names), 0)
			if add {
				for _, name := range names {
					g.Vertex(name)
				}
			}
		}
	}
	reserved, added := testing.AllocsPerRun(10, build(false)), testing.AllocsPerRun(10, build(true))
	if added != reserved {
		t.Errorf("adding %d reserved vertices: %v allocations, want the %v of the reservation", len(names), added, reserved)
	}
}

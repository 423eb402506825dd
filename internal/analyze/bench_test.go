package analyze

import (
	"testing"

	"rpq/internal/gen"
	"rpq/internal/pattern"
)

// The lint pass must stay far below solve cost — the Options.Lint gate runs
// it inline ahead of real queries. These benchmarks
// pin its cost on the same pinned workload cmd/bench uses (2000-edge
// C-dataflow graph), where the solve phase is in the tens of milliseconds:
// pattern-only lint is microseconds, graph lint sub-millisecond (dominated
// by the solver-shared refined-domain estimation).

var benchSpec = gen.ProgSpec{
	Name: "bench-prog", Seed: 42, Edges: 2000, Vars: 120,
	UninitFrac: 0.12, UseSites: true, EntryLoop: true,
}

const benchPat = "_* use(x,l) (!def(x))* entry()"

func BenchmarkLint(b *testing.B) {
	e := pattern.MustParse(benchPat)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Lint(e, benchPat, Config{})
	}
}

func BenchmarkLintForGraph(b *testing.B) {
	g := gen.Program(benchSpec)
	e := pattern.MustParse(benchPat)
	cfg := Config{HaveVariant: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LintForGraph(g, e, benchPat, cfg)
	}
}

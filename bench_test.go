package rpq

// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 6) as testing.B benchmarks:
//
//	BenchmarkTable1_*   uninitialized-use detection (Table 1)
//	BenchmarkTable2_*   LTS deadlock detection (Table 2)
//	BenchmarkTable3_*   hashing vs. nested arrays (Table 3)
//	BenchmarkFigure3_*  worklist/time scaling sweep (Figure 3)
//	BenchmarkAblation_* design-choice ablations (Sections 5.1, 5.3)
//
// cmd/experiments prints the same data in the paper's row format.

import (
	"fmt"
	"sync"
	"testing"

	"rpq/internal/core"
	"rpq/internal/gen"
	"rpq/internal/graph"
	"rpq/internal/pattern"
	"rpq/internal/queries"
	"rpq/internal/subst"
)

const (
	bwdUninitPattern = "_* use(x,l) (!def(x))* entry()"
	fwdUninitPattern = "(!def(x))* use(x,_)"
)

// workload caches generated graphs (and their backward forms) per preset.
type workload struct {
	fwd      *graph.Graph
	bwd      *graph.Graph
	bwdStart int32
}

var (
	workloadMu    sync.Mutex
	workloadCache = map[string]*workload{}
)

func progWorkload(b *testing.B, spec gen.ProgSpec) *workload {
	b.Helper()
	workloadMu.Lock()
	defer workloadMu.Unlock()
	if w, ok := workloadCache[spec.Name]; ok {
		return w
	}
	g := gen.Program(spec)
	r := g.Reverse()
	var start int32 = -1
	for v := 0; v < g.NumVertices(); v++ {
		for _, e := range g.Out(int32(v)) {
			if g.Label(e.LabelID).Format(g.U) == "exit()" {
				start = e.To
			}
		}
	}
	if start < 0 {
		b.Fatal("no exit edge in generated program")
	}
	w := &workload{fwd: g, bwd: r, bwdStart: start}
	workloadCache[spec.Name] = w
	return w
}

func ltsWorkload(b *testing.B, spec gen.LTSSpec) *graph.Graph {
	b.Helper()
	workloadMu.Lock()
	defer workloadMu.Unlock()
	if w, ok := workloadCache[spec.Name]; ok {
		return w.fwd
	}
	g := gen.RandomLTS(spec).ForExistential()
	workloadCache[spec.Name] = &workload{fwd: g}
	return g
}

func benchQuery(b *testing.B, g *graph.Graph, start int32, pat string, opts core.Options) {
	b.Helper()
	q := core.MustCompile(pattern.MustParse(pat), g.U)
	var res *core.Result
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = core.Exist(g, start, q, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(res.Stats.WorklistInserts), "worklist")
	b.ReportMetric(float64(res.Stats.ResultPairs), "results")
	b.ReportMetric(float64(res.Stats.Bytes)/1024, "KiB")
}

// ---- BenchmarkExist: observability overhead guard ----

// BenchmarkExist measures the solver on a mid-sized Table 1 program, plain
// and with the explain profile on. The explain sub-benchmark measures the
// full profiling cost (counters at every match site plus curve sampling);
// it is expected to run a few percent slower than plain.
func BenchmarkExist(b *testing.B) {
	spec := gen.Table1Specs()[4]
	for _, bench := range []struct {
		name string
		opts core.Options
	}{
		{"plain", core.Options{Algo: core.AlgoMemo}},
		{"explain", core.Options{Algo: core.AlgoMemo, Explain: true}},
	} {
		b.Run(bench.name, func(b *testing.B) {
			w := progWorkload(b, spec)
			benchQuery(b, w.bwd, w.bwdStart, bwdUninitPattern, bench.opts)
		})
	}
}

// ---- Table 1: uninitialized-use detection ----

func BenchmarkTable1_Basic(b *testing.B) {
	for _, spec := range gen.Table1Specs() {
		b.Run(spec.Name, func(b *testing.B) {
			w := progWorkload(b, spec)
			benchQuery(b, w.bwd, w.bwdStart, bwdUninitPattern, core.Options{Algo: core.AlgoBasic})
		})
	}
}

func BenchmarkTable1_Precomputation(b *testing.B) {
	for _, spec := range gen.Table1Specs() {
		b.Run(spec.Name, func(b *testing.B) {
			w := progWorkload(b, spec)
			benchQuery(b, w.bwd, w.bwdStart, bwdUninitPattern, core.Options{Algo: core.AlgoPrecomp})
		})
	}
}

func BenchmarkTable1_Enumeration(b *testing.B) {
	for _, spec := range gen.Table1Specs() {
		b.Run(spec.Name, func(b *testing.B) {
			w := progWorkload(b, spec)
			benchQuery(b, w.fwd, w.fwd.Start(), fwdUninitPattern, core.Options{Algo: core.AlgoEnum})
		})
	}
}

// ---- Table 2: LTS deadlock detection ----

func deadlockPattern() string {
	a, err := queries.ByName("lts-deadlock")
	if err != nil {
		panic(err)
	}
	return a.Pattern
}

func BenchmarkTable2_Basic(b *testing.B) {
	for _, spec := range gen.Table2Specs() {
		b.Run(spec.Name, func(b *testing.B) {
			g := ltsWorkload(b, spec)
			benchQuery(b, g, g.Start(), deadlockPattern(), core.Options{Algo: core.AlgoBasic})
		})
	}
}

func BenchmarkTable2_Precomputation(b *testing.B) {
	for _, spec := range gen.Table2Specs() {
		b.Run(spec.Name, func(b *testing.B) {
			g := ltsWorkload(b, spec)
			benchQuery(b, g, g.Start(), deadlockPattern(), core.Options{Algo: core.AlgoPrecomp})
		})
	}
}

func BenchmarkTable2_Enumeration(b *testing.B) {
	// Enumeration is quadratic (|G| × substs); as in the paper (180 s
	// limit), only the three smallest systems complete in reasonable time.
	for _, spec := range gen.Table2Specs()[:3] {
		b.Run(spec.Name, func(b *testing.B) {
			g := ltsWorkload(b, spec)
			benchQuery(b, g, g.Start(), deadlockPattern(), core.Options{Algo: core.AlgoEnum})
		})
	}
}

// ---- Table 3: hashing vs. nested arrays ----

func BenchmarkTable3(b *testing.B) {
	for _, spec := range []gen.ProgSpec{gen.Table1Specs()[0], gen.Table1Specs()[4], gen.Table1Specs()[8]} {
		for _, algo := range []core.Algo{core.AlgoBasic, core.AlgoPrecomp, core.AlgoEnum} {
			for _, tk := range []subst.TableKind{subst.Hash, subst.Nested} {
				name := fmt.Sprintf("%s/%v/%v", spec.Name, algo, tk)
				b.Run(name, func(b *testing.B) {
					w := progWorkload(b, spec)
					if algo == core.AlgoEnum {
						benchQuery(b, w.fwd, w.fwd.Start(), fwdUninitPattern, core.Options{Algo: algo, Table: tk})
					} else {
						benchQuery(b, w.bwd, w.bwdStart, bwdUninitPattern, core.Options{Algo: algo, Table: tk})
					}
				})
			}
		}
	}
}

// ---- Figure 3: scaling sweep ----

func BenchmarkFigure3_Sweep(b *testing.B) {
	for i, edges := range []int{500, 1000, 2000, 4000, 8000} {
		spec := gen.ProgSpec{
			Name: fmt.Sprintf("sweep-%d", edges), Seed: int64(3000 + i),
			Edges: edges, Vars: 40 + edges/25, UninitFrac: 0.12,
			UseSites: true, EntryLoop: true,
		}
		b.Run(fmt.Sprintf("edges-%d", edges), func(b *testing.B) {
			w := progWorkload(b, spec)
			benchQuery(b, w.bwd, w.bwdStart, bwdUninitPattern, core.Options{Algo: core.AlgoBasic})
		})
	}
}

// ---- Ablations (Sections 5.1, 5.3) ----

func BenchmarkAblation_Direction(b *testing.B) {
	spec := gen.Table1Specs()[4]
	b.Run("forward", func(b *testing.B) {
		w := progWorkload(b, spec)
		benchQuery(b, w.fwd, w.fwd.Start(), fwdUninitPattern, core.Options{Algo: core.AlgoBasic})
	})
	b.Run("backward", func(b *testing.B) {
		w := progWorkload(b, spec)
		benchQuery(b, w.bwd, w.bwdStart, bwdUninitPattern, core.Options{Algo: core.AlgoBasic})
	})
}

func BenchmarkAblation_Memoization(b *testing.B) {
	spec := gen.Table1Specs()[4]
	for _, algo := range []core.Algo{core.AlgoBasic, core.AlgoMemo} {
		b.Run(algo.String(), func(b *testing.B) {
			w := progWorkload(b, spec)
			benchQuery(b, w.bwd, w.bwdStart, bwdUninitPattern, core.Options{Algo: algo})
		})
	}
}

func BenchmarkAblation_Domains(b *testing.B) {
	spec := gen.Table1Specs()[0]
	for _, dm := range []core.DomainMode{core.DomainsRefined, core.DomainsAllSymbols} {
		name := "refined"
		if dm == core.DomainsAllSymbols {
			name = "all-symbols"
		}
		b.Run(name, func(b *testing.B) {
			w := progWorkload(b, spec)
			benchQuery(b, w.fwd, w.fwd.Start(), fwdUninitPattern, core.Options{Algo: core.AlgoEnum, Domains: dm})
		})
	}
}

func BenchmarkAblation_Compaction(b *testing.B) {
	spec := gen.Table1Specs()[4]
	for _, compact := range []bool{false, true} {
		name := "full"
		if compact {
			name = "compacted"
		}
		b.Run(name, func(b *testing.B) {
			w := progWorkload(b, spec)
			benchQuery(b, w.bwd, w.bwdStart, bwdUninitPattern, core.Options{Algo: core.AlgoBasic, Compact: compact})
		})
	}
}

func BenchmarkAblation_SCCOrder(b *testing.B) {
	spec := gen.Table1Specs()[4]
	for _, scc := range []bool{false, true} {
		name := "plain"
		if scc {
			name = "scc-ordered"
		}
		b.Run(name, func(b *testing.B) {
			w := progWorkload(b, spec)
			benchQuery(b, w.bwd, w.bwdStart, bwdUninitPattern, core.Options{Algo: core.AlgoBasic, SCCOrder: scc})
		})
	}
}

func BenchmarkAblation_ViolationQueryVsHandwritten(b *testing.B) {
	// Section 5.4: the generated merged violation query against the
	// hand-written access-violation query, on a file-heavy program.
	src := prog50Files()
	b.Run("handwritten", func(b *testing.B) {
		g, err := FromMiniC(src, MiniCConfig{})
		if err != nil {
			b.Fatal(err)
		}
		a, _ := AnalysisByName("file-access-violation")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := g.RunAnalysis(a, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("generated", func(b *testing.B) {
		g, err := FromMiniC(src, MiniCConfig{})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := g.Violations("(open(f) (access(f))* close(f))*", true, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func prog50Files() string {
	src := "func main() {\n"
	for i := 0; i < 50; i++ {
		src += fmt.Sprintf("\topen(f%d);\n\taccess(f%d);\n\tclose(f%d);\n", i, i, i)
	}
	src += "\taccess(f0);\n}" // one violation
	return src
}

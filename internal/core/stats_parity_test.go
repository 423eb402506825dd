package core

import (
	"fmt"
	"reflect"
	"testing"

	"rpq/internal/graph"
	"rpq/internal/obs"
	"rpq/internal/pattern"
	"rpq/internal/subst"
)

// TestStatsParityAcrossAlgorithms checks that every algorithm variant, over
// both table representations and both query kinds, fills the phase timings
// consistently, keeps DeterminismOK semantics, reports a positive Bytes
// model, and — crucially — computes the same answers with a live tracer and
// progress hook attached as with none (observability must never change
// results).
func TestStatsParityAcrossAlgorithms(t *testing.T) {
	existGraph := graph.MustReadString(figure1)
	univGraph := graph.MustReadString(`
start v0
edge v0 def(a) v1
edge v1 def(a) v2
`)

	type variant struct {
		kind string // "exist" or "univ"
		algo Algo
	}
	var variants []variant
	for _, a := range []Algo{AlgoBasic, AlgoMemo, AlgoPrecomp, AlgoEnum} {
		variants = append(variants, variant{"exist", a})
	}
	for _, a := range []Algo{AlgoBasic, AlgoMemo, AlgoPrecomp, AlgoEnum, AlgoHybrid} {
		variants = append(variants, variant{"univ", a})
	}

	for _, v := range variants {
		for _, tk := range []subst.TableKind{subst.Hash, subst.Nested} {
			t.Run(fmt.Sprintf("%s-%v-%v", v.kind, v.algo, tk), func(t *testing.T) {
				runQuery := func(opts Options) *Result {
					t.Helper()
					var res *Result
					var err error
					if v.kind == "exist" {
						q := MustCompile(pattern.MustParse("(!def(x))* use(x)"), existGraph.U)
						res, err = Exist(existGraph, existGraph.Start(), q, opts)
					} else {
						q := MustCompile(pattern.MustParse("def(x)*"), univGraph.U)
						res, err = Univ(univGraph, univGraph.Start(), q, opts)
					}
					if err != nil {
						t.Fatalf("%v: %v", v.algo, err)
					}
					return res
				}

				plain := runQuery(Options{Algo: v.algo, Table: tk})

				ring := obs.NewRingSink(1024)
				traced := runQuery(Options{Algo: v.algo, Table: tk, Tracer: ring, Progress: func(Progress) {}})

				// Observability must not perturb the answers.
				if !reflect.DeepEqual(pairKeys(plain), pairKeys(traced)) {
					t.Fatalf("tracer changed answers:\nplain:  %v\ntraced: %v",
						pairKeys(plain), pairKeys(traced))
				}
				if ring.Total() == 0 {
					t.Fatal("ring tracer recorded no events")
				}

				for _, res := range []*Result{plain, traced} {
					s := res.Stats
					if !s.DeterminismOK {
						t.Fatalf("DeterminismOK = false on a deterministic query")
					}
					if s.Bytes <= 0 {
						t.Fatalf("Stats.Bytes = %d, want > 0", s.Bytes)
					}
					if s.Phases.Solve.Wall <= 0 {
						t.Fatalf("Phases.Solve.Wall = %v, want > 0", s.Phases.Solve.Wall)
					}
					if s.Phases.Compile.Wall <= 0 {
						t.Fatalf("Phases.Compile.Wall = %v, want > 0", s.Phases.Compile.Wall)
					}
					if s.Phases.Domains.Wall < 0 {
						t.Fatalf("Phases.Domains.Wall = %v, want >= 0", s.Phases.Domains.Wall)
					}
					enumerating := v.algo == AlgoEnum || v.algo == AlgoHybrid
					if enumerating && s.Phases.Enumerate.Wall <= 0 {
						t.Fatalf("%v: Phases.Enumerate.Wall = %v, want > 0", v.algo, s.Phases.Enumerate.Wall)
					}
					if !enumerating && s.Phases.Enumerate.Wall != 0 {
						t.Fatalf("%v: Phases.Enumerate.Wall = %v, want 0 for worklist variants",
							v.algo, s.Phases.Enumerate.Wall)
					}
					if s.Phases.Solve.Wall < s.Phases.Enumerate.Wall {
						t.Fatalf("Enumerate wall %v exceeds Solve wall %v",
							s.Phases.Enumerate.Wall, s.Phases.Solve.Wall)
					}
				}

				// AllocBytes is sampled only when tracing (ReadMemStats is too
				// costly for the always-on path).
				if plain.Stats.Phases.Solve.AllocBytes != 0 {
					t.Fatalf("untraced run reported AllocBytes = %d, want 0",
						plain.Stats.Phases.Solve.AllocBytes)
				}
			})
		}
	}
}

// pairKeys renders the result pairs of a run as a sorted-stable string list
// (Pairs are already sorted by sortPairs).
func pairKeys(res *Result) []string {
	out := make([]string, 0, len(res.Pairs))
	for _, p := range res.Pairs {
		out = append(out, fmt.Sprintf("%d %s", p.Vertex, p.Subst.String()))
	}
	return out
}

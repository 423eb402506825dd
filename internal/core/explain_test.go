package core

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"strings"
	"testing"

	"rpq/internal/graph"
	"rpq/internal/pattern"
)

// explainFor runs one existential query with profiling on and checks the
// profile's internal consistency against the run's stats.
func explainFor(t *testing.T, wl workload, q *Query, opts Options) *Explain {
	t.Helper()
	opts.Explain = true
	res, err := Exist(wl.g, wl.start, q, opts)
	if err != nil {
		t.Fatalf("%v: %v", opts.Algo, err)
	}
	if res.Explain == nil {
		t.Fatalf("%v: Explain nil with Options.Explain set", opts.Algo)
	}
	if err := res.Explain.Consistent(&res.Stats); err != nil {
		t.Fatalf("%v: %v", opts.Algo, err)
	}
	top := res.Explain.TopStates(3)
	if len(top) != min(3, len(res.Explain.States)) {
		t.Fatalf("%v: TopStates(3) returned %d of %d states", opts.Algo, len(top), len(res.Explain.States))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Visits > top[i-1].Visits {
			t.Fatalf("%v: TopStates(3) = %+v is not ranked by visits", opts.Algo, top)
		}
	}
	for _, s := range res.Explain.States {
		if s.Visits > top[0].Visits {
			t.Fatalf("%v: state %d has more visits than TopStates' first %+v", opts.Algo, s.State, top[0])
		}
	}
	return res.Explain
}

// sameCounters requires two profiles over the same automaton to agree on
// every deterministic counter: totals, per-state visits, per-transition
// attempts/hits/extensions, and per-label histograms.
func sameCounters(t *testing.T, name string, a, b *Explain) {
	t.Helper()
	if a.Totals != b.Totals {
		t.Errorf("%s: totals %+v vs %+v", name, a.Totals, b.Totals)
	}
	if len(a.States) != len(b.States) {
		t.Fatalf("%s: %d vs %d state profiles", name, len(a.States), len(b.States))
	}
	for i := range a.States {
		if a.States[i] != b.States[i] {
			t.Errorf("%s: state %d: %+v vs %+v", name, a.States[i].State, a.States[i], b.States[i])
		}
	}
	if len(a.Transitions) != len(b.Transitions) {
		t.Fatalf("%s: %d vs %d transition profiles", name, len(a.Transitions), len(b.Transitions))
	}
	for i := range a.Transitions {
		if a.Transitions[i] != b.Transitions[i] {
			t.Errorf("%s: transition %d: %+v vs %+v", name, i, a.Transitions[i], b.Transitions[i])
		}
	}
	if len(a.Labels) != len(b.Labels) {
		t.Fatalf("%s: %d vs %d label profiles", name, len(a.Labels), len(b.Labels))
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Errorf("%s: label %q: %+v vs %+v", name, a.Labels[i].Label, a.Labels[i], b.Labels[i])
		}
	}
}

// TestExplainParityAcrossVariants checks the cross-variant invariants on the
// randomized corpus: basic, memo, and precomputation pop the same triples
// and extend the same edges (visits and extensions equal); basic and memo
// attempt the same matches with the same outcomes (attempts and hits equal —
// memoization changes who answers, not what is asked).
func TestExplainParityAcrossVariants(t *testing.T) {
	for _, wl := range corpus(t) {
		t.Run(wl.name, func(t *testing.T) {
			q := MustCompile(pattern.MustParse(wl.pat), wl.g.U)
			basic := explainFor(t, wl, q, Options{Algo: AlgoBasic})
			memo := explainFor(t, wl, q, Options{Algo: AlgoMemo})
			precomp := explainFor(t, wl, q, Options{Algo: AlgoPrecomp})
			explainFor(t, wl, q, Options{Algo: AlgoEnum}) // consistency only

			sameCounters(t, "basic-vs-memo", basic, memo)
			if basic.Totals.Visits != precomp.Totals.Visits {
				t.Errorf("visits: basic %d vs precomp %d", basic.Totals.Visits, precomp.Totals.Visits)
			}
			if basic.Totals.Extensions != precomp.Totals.Extensions {
				t.Errorf("extensions: basic %d vs precomp %d", basic.Totals.Extensions, precomp.Totals.Extensions)
			}
			for i := range basic.States {
				if basic.States[i].Visits != precomp.States[i].Visits {
					t.Errorf("state %d visits: basic %d vs precomp %d",
						basic.States[i].State, basic.States[i].Visits, precomp.States[i].Visits)
				}
			}
			for i := range basic.Transitions {
				if basic.Transitions[i].Extensions != precomp.Transitions[i].Extensions {
					t.Errorf("transition %d extensions: basic %d vs precomp %d",
						i, basic.Transitions[i].Extensions, precomp.Transitions[i].Extensions)
				}
			}
		})
	}
}

// TestExplainUniversal checks profile consistency for the universal
// algorithms: the direct algorithm on a deterministic chain, and
// enumeration/hybrid (with their ground passes) on the available-expressions
// graph.
func TestExplainUniversal(t *testing.T) {
	chain := graph.MustReadString(`
start v0
edge v0 def(a) v1
edge v1 def(a) v2
`)
	cq := MustCompile(pattern.MustParse("def(x)*"), chain.U)
	for _, algo := range []Algo{AlgoBasic, AlgoMemo, AlgoPrecomp} {
		res, err := Univ(chain, chain.Start(), cq, Options{Algo: algo, Explain: true})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if res.Explain == nil {
			t.Fatalf("%v: Explain nil", algo)
		}
		if res.Explain.Automaton != "dfa" {
			t.Errorf("%v: automaton %q, want dfa", algo, res.Explain.Automaton)
		}
		if err := res.Explain.Consistent(&res.Stats); err != nil {
			t.Errorf("%v: %v", algo, err)
		}
	}

	avail := graph.MustReadString(`
start s
edge s exp(a,plus,b) p1
edge s exp(a,plus,b) p2
edge p1 def(c) m
edge p2 def(d) m
edge m def(a) k
`)
	aq := MustCompile(pattern.MustParse("_* exp(x,op,y) (!(def(x)|def(y)))*"), avail.U)
	for _, algo := range []Algo{AlgoEnum, AlgoHybrid} {
		res, err := Univ(avail, avail.Start(), aq, Options{Algo: algo, Explain: true})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		ex := res.Explain
		if ex == nil {
			t.Fatalf("%v: Explain nil", algo)
		}
		if err := ex.Consistent(&res.Stats); err != nil {
			t.Errorf("%v: %v", algo, err)
		}
		if ex.GroundRuns == 0 {
			t.Errorf("%v: no ground-pass runs recorded", algo)
		}
		if ex.Totals.GroundPops == 0 {
			t.Errorf("%v: no ground-pass pops recorded", algo)
		}
		if algo == AlgoHybrid && ex.Totals.Attempts == 0 {
			t.Errorf("hybrid: inner existential profile not folded in (no attempts)")
		}
	}
}

// TestExplainOffLeavesResultBare guards the disabled path: no profile, no
// collector allocations visible to the caller.
func TestExplainOffLeavesResultBare(t *testing.T) {
	wl := corpus(t)[0]
	q := MustCompile(pattern.MustParse(wl.pat), wl.g.U)
	res, err := Exist(wl.g, wl.start, q, Options{Algo: AlgoMemo})
	if err != nil {
		t.Fatal(err)
	}
	if res.Explain != nil {
		t.Fatal("Explain non-nil without Options.Explain")
	}
}

// TestExplainReportShapes exercises the three renderings: the text report,
// the JSON encoding, and the annotated DOT (validated with graphviz when the
// dot binary is installed).
func TestExplainReportShapes(t *testing.T) {
	wl := corpus(t)[3] // hand graph: tiny, stable
	q := MustCompile(pattern.MustParse(wl.pat), wl.g.U)
	ex := explainFor(t, wl, q, Options{Algo: AlgoMemo})

	text := ex.Format()
	for _, want := range []string{"query profile:", "states:", "transitions:", "edge labels:"} {
		if !strings.Contains(text, want) {
			t.Errorf("text report missing %q:\n%s", want, text)
		}
	}

	b, err := json.Marshal(ex)
	if err != nil {
		t.Fatal(err)
	}
	var round Explain
	if err := json.Unmarshal(b, &round); err != nil {
		t.Fatal(err)
	}
	if round.Totals != ex.Totals {
		t.Errorf("JSON round-trip changed totals: %+v vs %+v", round.Totals, ex.Totals)
	}

	dot := ex.DOT()
	for _, want := range []string{"digraph explain", "__start", "fillcolor", "penwidth"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	if path, err := exec.LookPath("dot"); err == nil {
		cmd := exec.Command(path, "-Tsvg", "-o", "/dev/null")
		cmd.Stdin = strings.NewReader(dot)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Errorf("graphviz rejected the DOT: %v\n%s", err, stderr.String())
		}
	} else {
		t.Log("graphviz not installed; skipping render check")
	}
}

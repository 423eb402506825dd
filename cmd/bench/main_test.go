package main

import (
	"strings"
	"testing"
)

func sampleReport() *benchReport {
	return &benchReport{
		Schema: schemaVersion,
		Scenarios: []scenarioResult{
			{
				Name: "a/basic/hash/w1", Workload: "a", Kind: "exist", Algo: "basic",
				Table: "hash", Reps: 3, NsPerOp: 1_000_000, SolveNS: 900_000,
				Counters: map[string]int64{"worklist_inserts": 100, "result_pairs": 5},
			},
			{
				Name: "b/memo/hash/w1", Workload: "b", Kind: "exist", Algo: "memo",
				Table: "hash", Reps: 3, NsPerOp: 2_000_000, SolveNS: 1_800_000,
				Counters: map[string]int64{"worklist_inserts": 200, "result_pairs": 7},
			},
		},
	}
}

func clone(r *benchReport) *benchReport {
	out := &benchReport{Schema: r.Schema}
	for _, s := range r.Scenarios {
		c := s
		c.Counters = map[string]int64{}
		for k, v := range s.Counters {
			c.Counters[k] = v
		}
		out.Scenarios = append(out.Scenarios, c)
	}
	return out
}

func TestCompareIdenticalPasses(t *testing.T) {
	old := sampleReport()
	if p := compare(old, clone(old), 1.3); len(p) != 0 {
		t.Fatalf("identical reports flagged: %v", p)
	}
}

// TestCompareDetectsInjectedSlowdown is the harness self-test required by the
// benchmark contract: a 2x wall-time slowdown must trip the timing gate.
func TestCompareDetectsInjectedSlowdown(t *testing.T) {
	old := sampleReport()
	slow := clone(old)
	slow.Scenarios[1].NsPerOp *= 2
	p := compare(old, slow, 1.5)
	if len(p) != 1 {
		t.Fatalf("want exactly one problem, got %v", p)
	}
	if !strings.Contains(p[0], "b/memo/hash/w1") || !strings.Contains(p[0], "2.00x") {
		t.Fatalf("problem does not name the slow scenario and ratio: %q", p[0])
	}
	// Threshold 0 disables the timing gate entirely (the CI mode), so the
	// same slowdown passes there.
	if p := compare(old, slow, 0); len(p) != 0 {
		t.Fatalf("threshold 0 should ignore timing, got %v", p)
	}
}

func TestCompareDetectsCounterDrift(t *testing.T) {
	old := sampleReport()
	drift := clone(old)
	drift.Scenarios[0].Counters["worklist_inserts"] = 101
	p := compare(old, drift, 0)
	if len(p) != 1 || !strings.Contains(p[0], "worklist_inserts") {
		t.Fatalf("counter drift not detected: %v", p)
	}
}

func TestCompareDetectsMissingScenarioAndCounter(t *testing.T) {
	old := sampleReport()
	miss := clone(old)
	miss.Scenarios = miss.Scenarios[:1]
	delete(miss.Scenarios[0].Counters, "result_pairs")
	p := compare(old, miss, 0)
	if len(p) != 2 {
		t.Fatalf("want 2 problems (missing counter + missing scenario), got %v", p)
	}
}

func TestCompareSchemaMismatch(t *testing.T) {
	old := sampleReport()
	other := clone(old)
	other.Schema = "rpq-bench/0"
	p := compare(old, other, 0)
	if len(p) != 1 || !strings.Contains(p[0], "schema mismatch") {
		t.Fatalf("schema mismatch not detected: %v", p)
	}
}

func TestValidate(t *testing.T) {
	good := sampleReport()
	if err := validate(good); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*benchReport)
	}{
		{"bad schema", func(r *benchReport) { r.Schema = "x" }},
		{"no scenarios", func(r *benchReport) { r.Scenarios = nil }},
		{"empty name", func(r *benchReport) { r.Scenarios[0].Name = "" }},
		{"dup name", func(r *benchReport) { r.Scenarios[1].Name = r.Scenarios[0].Name }},
		{"zero reps", func(r *benchReport) { r.Scenarios[0].Reps = 0 }},
		{"zero time", func(r *benchReport) { r.Scenarios[0].NsPerOp = 0 }},
		{"no counters", func(r *benchReport) { r.Scenarios[0].Counters = nil }},
	} {
		r := clone(good)
		tc.mutate(r)
		if err := validate(r); err == nil {
			t.Errorf("%s: validate accepted a broken report", tc.name)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]int64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %d, want 2", m)
	}
	if m := median(nil); m != 0 {
		t.Fatalf("median(nil) = %d, want 0", m)
	}
}

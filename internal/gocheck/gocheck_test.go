package gocheck

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"rpq/internal/gofront"
	"rpq/internal/queries"
)

const fixtures = "../../testdata/goprog"

// runFixture evaluates all checks over one fixture directory and renders
// findings one per line as "file:line:col check message", with file paths
// trimmed to their base name so goldens are location-independent.
func runFixture(t *testing.T, dir string, opts Options) (*Report, string) {
	t.Helper()
	rep, err := Run([]string{filepath.Join(fixtures, dir)}, opts)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, f := range rep.Findings {
		suffix := ""
		if f.Suppressed {
			suffix = " (suppressed)"
		}
		b.WriteString(filepath.Base(f.File))
		b.WriteString(":")
		b.WriteString(strings.TrimPrefix(f.Pos(), f.File+":"))
		b.WriteString(" ")
		b.WriteString(f.Check)
		b.WriteString(" ")
		b.WriteString(f.Message)
		b.WriteString(suffix)
		b.WriteString("\n")
	}
	return rep, b.String()
}

// TestFixtureFindings pins the exact finding set — positions included —
// for every seeded fixture. Regenerate with UPDATE_GOLDEN=1.
func TestFixtureFindings(t *testing.T) {
	for _, dir := range []string{"uninit", "closechan", "locks", "deferloop"} {
		t.Run(dir, func(t *testing.T) {
			_, got := runFixture(t, dir, Options{})
			golden := filepath.Join("testdata", dir+".golden")
			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create)", err)
			}
			if got != string(want) {
				t.Errorf("findings mismatch (regen with UPDATE_GOLDEN=1)\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestSeededPositive asserts the canonical known-positive: Report in the
// uninit fixture reads total before any assignment, flagged at the exact
// `return total` span.
func TestSeededPositive(t *testing.T) {
	rep, _ := runFixture(t, "uninit", Options{Checks: []string{"uninit-use"}})
	var hit *Finding
	for i, f := range rep.Findings {
		if strings.HasSuffix(f.Bindings["x"], ".Report.total") {
			hit = &rep.Findings[i]
			break
		}
	}
	if hit == nil {
		t.Fatalf("seeded uninit-use on Report.total not found; findings: %+v", rep.Findings)
	}
	if filepath.Base(hit.File) != "uninit.go" || hit.Line != 14 || hit.Col != 9 {
		t.Errorf("seeded finding at %s, want uninit.go:14:9 (the total read in `return total`)", hit.Pos())
	}
	if !hit.Span.Valid() {
		t.Errorf("seeded finding has no byte span: %+v", hit.Span)
	}
	if !strings.Contains(hit.Message, "total") {
		t.Errorf("message should name the short symbol: %q", hit.Message)
	}
}

// TestSuppression: the Allowed function in the uninit fixture carries
// //rpqcheck:allow uninit-use, so its finding is dropped by default and
// marked when ShowSuppressed is set.
func TestSuppression(t *testing.T) {
	rep, _ := runFixture(t, "uninit", Options{Checks: []string{"uninit-use"}})
	if rep.Suppressed != 1 {
		t.Errorf("suppressed = %d, want 1", rep.Suppressed)
	}
	for _, f := range rep.Findings {
		if strings.Contains(f.Bindings["x"], ".Allowed.") {
			t.Errorf("suppressed finding leaked into report: %+v", f)
		}
	}
	rep2, _ := runFixture(t, "uninit", Options{Checks: []string{"uninit-use"}, ShowSuppressed: true})
	found := false
	for _, f := range rep2.Findings {
		if strings.Contains(f.Bindings["x"], ".Allowed.") && f.Suppressed {
			found = true
		}
	}
	if !found {
		t.Errorf("ShowSuppressed should surface the allowed finding as suppressed")
	}
}

func TestBaselineRoundtrip(t *testing.T) {
	rep, _ := runFixture(t, "locks", Options{})
	if len(rep.Findings) == 0 {
		t.Fatal("locks fixture should produce findings")
	}
	base := NewBaseline(rep)
	var buf bytes.Buffer
	if err := base.Write(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	news, fixed := loaded.Diff(rep)
	if len(news) != 0 || len(fixed) != 0 {
		t.Errorf("self-diff should be empty, got %d new, %d fixed", len(news), len(fixed))
	}
	// A report missing one finding shows it as fixed; an extra one is new.
	trimmed := *rep
	trimmed.Findings = rep.Findings[1:]
	news, fixed = loaded.Diff(&trimmed)
	if len(news) != 0 || len(fixed) == 0 {
		t.Errorf("dropping a finding: got %d new, %d fixed", len(news), len(fixed))
	}
	extra := *rep
	extra.Findings = append([]Finding{{Check: "double-lock", File: "other.go",
		Bindings: map[string]string{"m": "pkg.F.mu"}}}, rep.Findings...)
	news, _ = loaded.Diff(&extra)
	if len(news) != 1 {
		t.Errorf("added finding: got %d new, want 1", len(news))
	}
}

// TestAdvisories: a pattern negating a constructor the graph never emits
// surfaces an RPQ016 alphabet-coverage advisory alongside the findings.
func TestAdvisories(t *testing.T) {
	rep, err := RunSource(map[string]string{"main.go": `package p
func F() {
	ch := make(chan int)
	close(ch)
	ch <- 1
}`}, Options{Checks: []string{"use-after-close", "uninit-use"}})
	if err != nil {
		t.Fatal(err)
	}
	// This tiny program has no decl/lock/mcall edges, so at least one check
	// pattern references constructors absent from the alphabet.
	if len(rep.Advisories) == 0 {
		t.Errorf("expected alphabet advisories for the missing constructors")
	}
	found := false
	for _, f := range rep.Findings {
		if f.Check == "use-after-close" {
			found = true
		}
	}
	if !found {
		t.Errorf("send-after-close not flagged; findings: %+v", rep.Findings)
	}
}

func TestRunSourceTxtar(t *testing.T) {
	files := gofront.SplitSource(`-- go.mod --
module demo

-- a.go --
package main

import "sync"

var mu sync.Mutex

func main() {
	mu.Lock()
	helper()
}

-- b.go --
package main

func helper() {
	mu.Lock()
}
`)
	rep, err := RunSource(files, Options{Checks: []string{"double-lock"}})
	if err != nil {
		t.Fatal(err)
	}
	// The double lock spans main -> helper: only the interprocedural graph
	// sees it.
	if len(rep.Findings) != 1 || rep.Findings[0].Bindings["m"] != "demo.mu" {
		t.Errorf("cross-function double-lock: %+v", rep.Findings)
	}
}

func TestTextAndJSONRendering(t *testing.T) {
	rep, _ := runFixture(t, "deferloop", Options{})
	var txt bytes.Buffer
	rep.WriteText(&txt, nil, false)
	if !strings.Contains(txt.String(), "[defer-in-loop]") {
		t.Errorf("text output missing check tag:\n%s", txt.String())
	}
	var js bytes.Buffer
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"schema": "rpqcheck/1"`) {
		t.Errorf("json output missing schema:\n%s", js.String())
	}
}

// TestAdvisoryTextLines: the two lock(m) labels of double-lock each draw
// an RPQ010 advisory on a program without locks; the text report must
// tell them apart by their pattern positions.
func TestAdvisoryTextLines(t *testing.T) {
	rep, err := RunSource(map[string]string{"main.go": "package p\nfunc F() {}\n"},
		Options{Checks: []string{"double-lock"}})
	if err != nil {
		t.Fatal(err)
	}
	var txt bytes.Buffer
	rep.WriteText(&txt, nil, false)
	seen := map[string]bool{}
	n := 0
	for _, line := range strings.Split(txt.String(), "\n") {
		if !strings.HasPrefix(line, "# [double-lock] RPQ010") {
			continue
		}
		if seen[line] {
			t.Errorf("advisory line printed twice: %q", line)
		}
		seen[line] = true
		n++
	}
	if n != 2 {
		t.Errorf("%d double-lock RPQ010 advisory lines, want 2:\n%s", n, txt.String())
	}
}

func TestUnknownCheck(t *testing.T) {
	_, err := Run([]string{filepath.Join(fixtures, "uninit")}, Options{Checks: []string{"nope"}})
	if err == nil || !strings.Contains(err.Error(), "unknown check") {
		t.Errorf("want unknown-check error, got %v", err)
	}
}

// TestSelectChecks: names resolve in first-mention order, each once; a
// selection of only blank names is an error, not a run of no checks.
func TestSelectChecks(t *testing.T) {
	var all []string
	for _, c := range queries.GoChecks() {
		all = append(all, c.Name)
	}
	for _, tc := range []struct {
		names []string
		want  []string // nil: an error is expected
	}{
		{nil, all},
		{[]string{"double-lock"}, []string{"double-lock"}},
		{[]string{"double-lock", "double-lock"}, []string{"double-lock"}},
		{[]string{" uninit-use", "double-lock", "uninit-use "}, []string{"uninit-use", "double-lock"}},
		{[]string{"", "double-lock", ""}, []string{"double-lock"}},
		{[]string{"", ""}, nil},
		{[]string{" "}, nil},
		{[]string{"double-lock", "nope"}, nil},
	} {
		checks, err := selectChecks(tc.names)
		var got []string
		for _, c := range checks {
			got = append(got, c.Name)
		}
		if tc.want == nil {
			if err == nil {
				t.Errorf("selectChecks(%q) = %v, want an error", tc.names, got)
			}
			continue
		}
		if err != nil || !slices.Equal(got, tc.want) {
			t.Errorf("selectChecks(%q) = %v, %v; want %v", tc.names, got, err, tc.want)
		}
	}
}

// TestBaselineDiffSkipsChecksNotRun: a baseline taken over every check,
// diffed against a run of one check, reports as fixed only that check's
// missing keys, never the keys of checks that did not run.
func TestBaselineDiffSkipsChecksNotRun(t *testing.T) {
	full, _ := runFixture(t, "locks", Options{})
	base := NewBaseline(full)
	if !slices.ContainsFunc(full.Findings, func(f Finding) bool { return f.Check != "double-lock" }) {
		t.Fatal("locks fixture should produce findings of a check other than double-lock")
	}
	rep, _ := runFixture(t, "locks", Options{Checks: []string{"double-lock"}})
	if news, fixed := base.Diff(rep); len(news) != 0 || len(fixed) != 0 {
		t.Errorf("one-check diff: got %d new, fixed %q; want none", len(news), fixed)
	}
	trimmed := *rep
	trimmed.Findings = nil
	_, fixed := base.Diff(&trimmed)
	for _, k := range fixed {
		if !strings.HasPrefix(k, "double-lock|") {
			t.Errorf("key %q reported fixed, but its check did not run", k)
		}
	}
	if len(fixed) == 0 {
		t.Error("double-lock keys missing from the report should be fixed")
	}
}

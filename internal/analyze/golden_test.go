package analyze

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"rpq/internal/core"
	"rpq/internal/graph"
	"rpq/internal/pattern"
	"rpq/internal/subst"
)

var update = flag.Bool("update", false, "rewrite golden expectations in testdata/*.lint")

// The golden diagnostics suite: every fixture in testdata/*.lint holds a
// pattern (with optional graph and variant configuration) and the exact
// expected rendering of its lint report — code, severity, byte span, and
// line:col position per finding. There is at least one fixture per
// diagnostic code, so every code's exact anchor span is pinned.
//
// Fixture format, line-oriented:
//
//	pattern: <pattern source>
//	graph: edge v1 def(a) v2; edge v2 use(a) v3   (optional; ';'-separated)
//	graphgen: 20          (optional; n self-loop edges e(aI,bI,cI))
//	universal: true       (optional)
//	algo: enum            (optional; implies variant advice)
//	table: nested         (optional; implies variant advice)
//	-- want --
//	<one line per diagnostic, as rendered by renderDiag>
func TestGoldenDiagnostics(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.lint"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no fixtures in testdata/")
	}
	// Every diagnostic code must be pinned by at least one fixture.
	covered := map[string]bool{}
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			got := runFixture(t, f)
			for _, line := range strings.Split(got, "\n") {
				if i := strings.IndexByte(line, ' '); i > 0 {
					covered[line[:i]] = true
				}
			}
		})
	}
	allCodes := []string{
		CodeEmpty, CodeOnlyEps, CodeDeadLabel, CodeNeverBinds, CodeMayNotBind,
		CodeNegBeforeBind, CodeUnsatLabel, CodeDupBranch, CodeRedundantRep,
		CodeUnknownCtor, CodeArityMismatch, CodeGraphEmpty, CodeNegVacuous,
		CodeVariantAdvice, CodeTableAdvice, CodeAlphabetCoverage,
		CodeGenericMatch, CodeLabelParsFactor,
	}
	for _, c := range allCodes {
		if !covered[c] {
			t.Errorf("no golden fixture covers %s", c)
		}
	}
}

// renderDiag pins the golden line format: stable code, severity, exact byte
// span, and rendered position.
func renderDiag(d Diagnostic) string {
	return fmt.Sprintf("%s %s span=%d:%d at %s: %s", d.Code, d.Severity, d.Span.Start, d.Span.End, d.Pos, d.Message)
}

func runFixture(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	header, want, hasWant := strings.Cut(string(raw), "-- want --\n")

	var src string
	var g *graph.Graph
	cfg := Config{}
	for _, line := range strings.Split(header, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			t.Fatalf("%s: bad fixture line %q", path, line)
		}
		val = strings.TrimSpace(val)
		switch key {
		case "pattern":
			src = val
		case "graph":
			g = graph.New()
			for _, stmt := range strings.Split(val, ";") {
				fields := strings.Fields(stmt)
				if len(fields) != 4 || fields[0] != "edge" {
					t.Fatalf("%s: bad graph stmt %q", path, stmt)
				}
				g.MustAddEdgeStr(fields[1], fields[2], fields[3])
			}
			g.SetStart(0)
		case "graphgen":
			n, err := strconv.Atoi(val)
			if err != nil {
				t.Fatalf("%s: bad graphgen %q", path, val)
			}
			g = graph.New()
			for i := 0; i < n; i++ {
				g.MustAddEdgeStr("v1", fmt.Sprintf("e(a%d,b%d,c%d)", i, i, i), "v1")
			}
			g.SetStart(g.Vertex("v1"))
		case "universal":
			cfg.Universal = val == "true"
		case "algo":
			cfg.HaveVariant = true
			switch val {
			case "basic":
				cfg.Algo = core.AlgoBasic
			case "memo":
				cfg.Algo = core.AlgoMemo
			case "enum":
				cfg.Algo = core.AlgoEnum
			default:
				t.Fatalf("%s: bad algo %q", path, val)
			}
		case "table":
			cfg.HaveVariant = true
			switch val {
			case "hash":
				cfg.Table = subst.Hash
			case "nested":
				cfg.Table = subst.Nested
			default:
				t.Fatalf("%s: bad table %q", path, val)
			}
		default:
			t.Fatalf("%s: unknown fixture key %q", path, key)
		}
	}
	if src == "" {
		t.Fatalf("%s: fixture has no pattern", path)
	}
	e, err := pattern.Parse(src)
	if err != nil {
		t.Fatalf("%s: parse %q: %v", path, src, err)
	}
	var ds []Diagnostic
	if g != nil {
		ds = LintForGraph(g, e, src, cfg)
	} else {
		ds = Lint(e, src, cfg)
	}
	var lines []string
	for _, d := range ds {
		lines = append(lines, renderDiag(d))
	}
	got := strings.Join(lines, "\n")

	if *update {
		out := strings.TrimRight(header, "\n") + "\n-- want --\n" + got + "\n"
		if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return got
	}
	if !hasWant {
		t.Fatalf("%s: missing '-- want --' section (run with -update to generate)", path)
	}
	if got != strings.TrimRight(want, "\n") {
		t.Errorf("%s: lint report mismatch\n--- got ---\n%s\n--- want ---\n%s", path, got, strings.TrimRight(want, "\n"))
	}
	return got
}

// TestGoldenSpansSliceSource re-checks, for every fixture, that each span
// actually slices the fixture's own pattern source (the golden text could in
// principle encode a stale span; this guards the invariant directly).
func TestGoldenSpansSliceSource(t *testing.T) {
	files, _ := filepath.Glob(filepath.Join("testdata", "*.lint"))
	sort.Strings(files)
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		header, _, _ := strings.Cut(string(raw), "-- want --\n")
		for _, line := range strings.Split(header, "\n") {
			if src, ok := strings.CutPrefix(strings.TrimSpace(line), "pattern:"); ok {
				src = strings.TrimSpace(src)
				e, err := pattern.Parse(src)
				if err != nil {
					t.Fatalf("%s: %v", f, err)
				}
				for _, d := range Lint(e, src, Config{}) {
					if d.Span.Start < 0 || d.Span.End > len(src) {
						t.Errorf("%s: %s span %v outside source %q", f, d.Code, d.Span, src)
					}
				}
			}
		}
	}
}

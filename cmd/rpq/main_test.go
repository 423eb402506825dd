package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runAsRpq is the environment variable under which the test binary runs
// main instead of the tests, so the tests drive the real command line
// without a separate build step.
const runAsRpq = "RPQ_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsRpq) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runRpq runs the command with args and returns its standard output; a
// nonzero exit fails the test.
func runRpq(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runAsRpq+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("rpq %s: %v\n%s%s", strings.Join(args, " "), err, out, &stderr)
	}
	return string(out)
}

// TestAlgoTableMatrix runs the Figure 1 query under every -algo and
// -table name, so a name dropped from a choice's name table fails here.
// Hybrid answers universal queries only.
func TestAlgoTableMatrix(t *testing.T) {
	g := filepath.Join(t.TempDir(), "fig1.txt")
	fig1 := "start v1\nedge v1 def(a) v2\nedge v2 use(a) v3\nedge v3 def(a) v4\nedge v4 use(b) v5\nedge v5 def(b) v6\nedge v6 use(a) v7\nedge v6 use(c) v7\n"
	if err := os.WriteFile(g, []byte(fig1), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"auto", "basic", "memo", "precomp", "enum", "hybrid"} {
		for _, table := range []string{"hash", "nested"} {
			args := []string{"-graph", g, "-pattern", "(!def(x))* use(x)", "-algo", algo, "-table", table}
			want := "v5 {x↦b}\nv7 {x↦c}\n"
			if algo == "hybrid" {
				args, want = append(args, "-universal"), "v5 {x↦b}\n"
			}
			if got := runRpq(t, args...); got != want {
				t.Errorf("-algo %s -table %s: got %q, want %q", algo, table, got, want)
			}
		}
	}
}

// TestQueryFixturesLintClean lints every committed query fixture against
// the fixture graph; -lint exits 1 on an error-severity finding, while
// warnings are allowed.
func TestQueryFixturesLintClean(t *testing.T) {
	fixtures, err := filepath.Glob("../../testdata/queries/*.rpq")
	if err != nil || len(fixtures) == 0 {
		t.Fatalf("no query fixtures: %v", err)
	}
	for _, f := range fixtures {
		runRpq(t, "-lint", "text", "-pattern-file", f, "-graph", "../../testdata/queries/graph.txt")
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"rpq"
)

// traceRow is the subset of a trace_event entry the tests read.
type traceRow struct {
	Name string           `json:"name"`
	Ph   string           `json:"ph"`
	TS   float64          `json:"ts"`
	Dur  float64          `json:"dur"`
	Args map[string]int64 `json:"args"`
}

func renderTrace(t *testing.T, s *rpq.Stats) []traceRow {
	t.Helper()
	var buf bytes.Buffer
	if err := writeTrace(&buf, s); err != nil {
		t.Fatal(err)
	}
	var rows []traceRow
	if err := json.Unmarshal(buf.Bytes(), &rows); err != nil {
		t.Fatalf("trace is not a JSON array: %v\n%s", err, buf.String())
	}
	return rows
}

// spans indexes the complete ("X") events by name and checks that each
// name occurs once.
func spans(t *testing.T, rows []traceRow) map[string]traceRow {
	t.Helper()
	out := map[string]traceRow{}
	for _, r := range rows {
		if r.Ph != "X" {
			continue
		}
		if _, dup := out[r.Name]; dup {
			t.Fatalf("phase %q has two events", r.Name)
		}
		out[r.Name] = r
	}
	return out
}

// nanos turns a trace time back into whole nanoseconds, so interval checks
// compare exact integers rather than float sums.
func nanos(us float64) int64 { return int64(math.Round(us * 1e3)) }

func end(r traceRow) int64 { return nanos(r.TS) + nanos(r.Dur) }

func inside(inner, outer traceRow) bool {
	return nanos(inner.TS) >= nanos(outer.TS) && end(inner) <= end(outer)
}

// TestWriteTraceNestsPhases renders a hand-made record whose domains and
// enumerate phases fill solve exactly: one X event per phase, compile
// before solve, domains and enumerate inside solve in that order, and a
// counter event with the end-of-run counters.
func TestWriteTraceNestsPhases(t *testing.T) {
	var s rpq.Stats
	s.Phases.Compile.Wall = 1500 * time.Nanosecond
	s.Phases.Solve.Wall = 10 * time.Millisecond
	s.Phases.Domains.Wall = 3*time.Millisecond + 7
	s.Phases.Enumerate.Wall = 7*time.Millisecond - 7
	s.WorklistInserts, s.EnumSubsts = 42, 3
	rows := renderTrace(t, &s)

	var names []string
	for _, r := range rows {
		names = append(names, r.Ph+":"+r.Name)
	}
	if got, want := strings.Join(names, " "), "X:compile X:solve X:domains X:enumerate C:stats"; got != want {
		t.Fatalf("events = %s, want %s", got, want)
	}
	sp := spans(t, rows)
	compile, solve := sp["compile"], sp["solve"]
	if compile.TS != 0 || compile.Dur != 1.5 {
		t.Errorf("compile = %+v, want ts 0 dur 1.5µs", compile)
	}
	if solve.TS != compile.TS+compile.Dur || solve.Dur != 10000 {
		t.Errorf("solve = %+v, want it to follow compile and last 10ms", solve)
	}
	for _, name := range []string{"domains", "enumerate"} {
		if !inside(sp[name], solve) {
			t.Errorf("%s %+v lies outside solve %+v", name, sp[name], solve)
		}
	}
	if d, e := sp["domains"], sp["enumerate"]; end(d) > nanos(e.TS) {
		t.Errorf("domains %+v overlaps enumerate %+v", d, e)
	}
	c := rows[len(rows)-1]
	if c.TS != solve.TS+solve.Dur || c.Args["worklist_inserts"] != 42 || c.Args["enum_substs"] != 3 {
		t.Errorf("counter event = %+v", c)
	}
}

// TestWriteTraceOmitsZeroPhases checks that a phase with no wall time gives
// no event: a worklist run has no enumerate phase, and a nil record is an
// empty array.
func TestWriteTraceOmitsZeroPhases(t *testing.T) {
	var s rpq.Stats
	s.Phases.Compile.Wall = time.Microsecond
	s.Phases.Solve.Wall = time.Millisecond
	sp := spans(t, renderTrace(t, &s))
	if len(sp) != 2 || sp["compile"].Dur == 0 || sp["solve"].Dur == 0 {
		t.Fatalf("spans = %+v, want compile and solve only", sp)
	}
	if rows := renderTrace(t, nil); len(rows) != 0 {
		t.Fatalf("nil stats gave %d events, want none", len(rows))
	}
}

// TestWriteTraceRealRun renders the record of an enumeration run and checks
// the same nesting on measured walls. Domains is a few hundred nanoseconds
// on this graph, so only its nesting is checked, not its presence.
func TestWriteTraceRealRun(t *testing.T) {
	g, err := rpq.ReadGraph(strings.NewReader(
		"start v1\nedge v1 def(a) v2\nedge v2 use(a) v3\nedge v3 def(a) v4\nedge v4 use(b) v5\n" +
			"edge v5 def(b) v6\nedge v6 use(a) v7\nedge v6 use(c) v7\n"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Exist(rpq.MustParsePattern("(!def(x))* use(x)"), &rpq.Options{Algorithm: rpq.Enumerate})
	if err != nil {
		t.Fatal(err)
	}
	rows := renderTrace(t, &res.Stats)
	sp := spans(t, rows)
	solve := sp["solve"]
	for _, name := range []string{"compile", "solve", "enumerate"} {
		if sp[name].Dur <= 0 {
			t.Fatalf("no %s event in %+v", name, rows)
		}
	}
	if end(sp["compile"]) > nanos(solve.TS) {
		t.Errorf("compile %+v overlaps solve %+v", sp["compile"], solve)
	}
	for _, name := range []string{"domains", "enumerate"} {
		if r, ok := sp[name]; ok && !inside(r, solve) {
			t.Errorf("%s %+v lies outside solve %+v", name, r, solve)
		}
	}
	if c := rows[len(rows)-1]; c.Ph != "C" || c.Args["result_pairs"] != int64(res.Stats.ResultPairs) {
		t.Errorf("counter event = %+v, want result_pairs %d", c, res.Stats.ResultPairs)
	}
}

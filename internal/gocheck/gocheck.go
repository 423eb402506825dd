// Package gocheck runs the rpqcheck catalog (internal/queries.GoChecks)
// over Go packages lowered by internal/gofront, turning existential query
// answers into findings with exact file:line:col spans, honoring
// //rpqcheck:allow suppressions, and diffing against committed baselines so
// CI fails only on *new* findings.
package gocheck

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"rpq"
	"rpq/internal/analyze"
	"rpq/internal/gofront"
	"rpq/internal/queries"
	"rpq/internal/span"
)

// Options configures one rpqcheck run.
type Options struct {
	// Checks selects catalog checks by name; empty means all.
	Checks []string
	// Workers bounds the parallel per-function CFG construction; <= 0
	// means GOMAXPROCS. Queries run on the sequential solver.
	Workers int
	// IncludeTests also analyzes _test.go files.
	IncludeTests bool
	// ShowSuppressed keeps //rpqcheck:allow-suppressed findings in the
	// report (marked), instead of dropping them.
	ShowSuppressed bool
}

// Finding is one check hit at one program point.
type Finding struct {
	Check   string    `json:"check"`
	File    string    `json:"file"`
	Line    int       `json:"line"`
	Col     int       `json:"col"`
	Span    span.Span `json:"span"`
	Message string    `json:"message"`
	// Bindings maps query parameters to the qualified symbols they bound
	// to (x -> pkg/path.Func.v).
	Bindings map[string]string `json:"bindings,omitempty"`
	// Vertex is the graph vertex the answer names, for debugging.
	Vertex     string `json:"vertex,omitempty"`
	Suppressed bool   `json:"suppressed,omitempty"`
}

// Pos renders the finding position as file:line:col.
func (f Finding) Pos() string { return fmt.Sprintf("%s:%d:%d", f.File, f.Line, f.Col) }

// Advisory is a query-vs-graph lint diagnostic (RPQ010/RPQ011/RPQ016
// alphabet coverage): the check still ran, but its pattern references
// constructors this graph never emits, so its answer set may be silently
// smaller or larger than intended.
type Advisory struct {
	Check      string             `json:"check"`
	Diagnostic analyze.Diagnostic `json:"diagnostic"`
}

// Stats summarizes the run for the report footer.
type Stats struct {
	Functions int   `json:"functions"`
	Vertices  int   `json:"vertices"`
	Edges     int   `json:"edges"`
	BuildNS   int64 `json:"build_ns"`
	SolveNS   int64 `json:"solve_ns"`
}

// Report is the full result of one run; the JSON form is schema
// "rpqcheck/1".
type Report struct {
	Schema     string     `json:"schema"`
	Checks     []string   `json:"checks"`
	Findings   []Finding  `json:"findings"`
	Suppressed int        `json:"suppressed"`
	Advisories []Advisory `json:"advisories,omitempty"`
	Stats      Stats      `json:"stats"`
}

// Run loads the packages named by patterns (gofront.Load syntax) and
// evaluates the selected checks.
func Run(patterns []string, opts Options) (*Report, error) {
	rep, _, err := RunWithPrograms(patterns, opts)
	return rep, err
}

// RunWithPrograms is Run, also returning the program it lowered, so
// callers can render source snippets or inspect the graph.
func RunWithPrograms(patterns []string, opts Options) (*Report, *gofront.Program, error) {
	return run(opts, func(cfg gofront.Config) (*gofront.Program, error) {
		return gofront.Load(patterns, cfg)
	})
}

// RunSource is Run over in-memory sources, keyed as gofront.LoadSource
// takes them.
func RunSource(files map[string]string, opts Options) (*Report, error) {
	rep, _, err := run(opts, func(cfg gofront.Config) (*gofront.Program, error) {
		return gofront.LoadSource(files, cfg)
	})
	return rep, err
}

// run lowers the sources once and evaluates the selected checks, each on
// the program or, if interprocedural, on its linked copy. The copy is
// built, and describes the graph in the stats, only when such a check is
// selected.
func run(opts Options, load func(gofront.Config) (*gofront.Program, error)) (*Report, *gofront.Program, error) {
	checks, err := selectChecks(opts.Checks)
	if err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	intra, err := load(gofront.Config{Workers: opts.Workers, IncludeTests: opts.IncludeTests})
	if err != nil {
		return nil, nil, err
	}
	inter := intra
	if slices.ContainsFunc(checks, func(c queries.GoCheck) bool { return c.Interproc }) {
		if inter, err = intra.Linked(); err != nil {
			return nil, nil, err
		}
	}
	rep := &Report{Schema: "rpqcheck/1", Stats: Stats{
		Functions: len(inter.Funcs),
		Vertices:  inter.Graph.NumVertices(),
		Edges:     inter.Graph.NumEdges(),
		BuildNS:   time.Since(t0).Nanoseconds(),
	}}

	t0 = time.Now()
	seen := map[string]bool{}
	for _, c := range checks {
		rep.Checks = append(rep.Checks, c.Name)
		prog := intra
		if c.Interproc {
			prog = inter
		}
		pat, err := rpq.ParsePattern(c.Pattern)
		if err != nil {
			return nil, nil, fmt.Errorf("gocheck: %s: %w", c.Name, err)
		}
		// Alphabet-coverage advisories (RPQ010/011/016): schema drift
		// between the check patterns and what the frontend emitted.
		for _, d := range analyze.AlphabetForGraph(prog.Graph, pat.Expr(), c.Pattern) {
			switch d.Code {
			case analyze.CodeUnknownCtor, analyze.CodeArityMismatch, analyze.CodeAlphabetCoverage:
				rep.Advisories = append(rep.Advisories, Advisory{Check: c.Name, Diagnostic: d})
			}
		}
		res, err := rpq.WrapGraph(prog.Graph).Exist(pat, &rpq.Options{})
		if err != nil {
			return nil, nil, fmt.Errorf("gocheck: %s: %w", c.Name, err)
		}
		for _, a := range res.Answers {
			f, ok := toFinding(c, a, prog)
			if !ok {
				continue
			}
			key := f.Check + "\x00" + f.Pos() + "\x00" + f.Message
			if seen[key] {
				continue
			}
			seen[key] = true
			if prog.Allowed(f.File, f.Line, f.Check) {
				rep.Suppressed++
				if !opts.ShowSuppressed {
					continue
				}
				f.Suppressed = true
			}
			rep.Findings = append(rep.Findings, f)
		}
	}
	rep.Stats.SolveNS = time.Since(t0).Nanoseconds()
	sort.Slice(rep.Findings, func(i, j int) bool {
		a, b := rep.Findings[i], rep.Findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Check < b.Check
	})
	return rep, intra, nil
}

// selectChecks resolves the named checks in first-mention order, each
// once. No names selects the whole catalog; names that are all blank are
// an error rather than a run of no checks.
func selectChecks(names []string) ([]queries.GoCheck, error) {
	all := queries.GoChecks()
	if len(names) == 0 {
		return all, nil
	}
	var out []queries.GoCheck
	for _, n := range names {
		n = strings.TrimSpace(n)
		if n == "" || slices.ContainsFunc(out, func(c queries.GoCheck) bool { return c.Name == n }) {
			continue
		}
		c, ok := queries.GoCheckByName(n)
		if !ok {
			known := make([]string, len(all))
			for i, a := range all {
				known[i] = a.Name
			}
			return nil, fmt.Errorf("gocheck: unknown check %q (have %s)", n, strings.Join(known, ", "))
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("gocheck: no check named in %q", strings.Join(names, ","))
	}
	return out, nil
}

// toFinding maps one existential answer to a finding at the answer
// vertex's source location. Answers at synthetic vertices (joins, entry
// frames) have no location and are dropped: every real check effect
// (use/close/lock/... step) records one.
func toFinding(c queries.GoCheck, a rpq.Answer, prog *gofront.Program) (Finding, bool) {
	loc, ok := prog.Location(a.Vertex)
	if !ok {
		return Finding{}, false
	}
	f := Finding{
		Check:  c.Name,
		File:   loc.File,
		Line:   loc.Line,
		Col:    loc.Col,
		Span:   loc.Span,
		Vertex: a.Vertex,
	}
	if len(a.Bindings) > 0 {
		f.Bindings = map[string]string{}
		for _, b := range a.Bindings {
			f.Bindings[b.Param] = b.Symbol
		}
	}
	f.Message = expandMessage(c.Message, f.Bindings)
	return f, true
}

// expandMessage replaces {param} placeholders with the short form of the
// bound symbol: pkg/path.Func.x#2 reads as x.
func expandMessage(tmpl string, bindings map[string]string) string {
	out := tmpl
	for p, sym := range bindings {
		out = strings.ReplaceAll(out, "{"+p+"}", shortSym(sym))
	}
	return out
}

func shortSym(sym string) string {
	s := sym
	if i := strings.LastIndexByte(s, '.'); i >= 0 && i+1 < len(s) {
		s = s[i+1:]
	}
	if i := strings.IndexByte(s, '#'); i > 0 {
		s = s[:i]
	}
	return s
}

// ---- rendering ----

// WriteText renders the report in vet style: pos: message [check], with an
// optional caret snippet from the loaded sources. It returns the first
// write error.
func (r *Report) WriteText(w io.Writer, prog func(file string) (string, bool), carets bool) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.Findings {
		suffix := ""
		if f.Suppressed {
			suffix = " (suppressed)"
		}
		fmt.Fprintf(bw, "%s: %s [%s]%s\n", f.Pos(), f.Message, f.Check, suffix)
		if carets && prog != nil {
			if src, ok := prog(f.File); ok {
				fmt.Fprint(bw, indent(span.Caret(src, f.Span), "\t"))
			}
		}
	}
	if len(r.Advisories) > 0 {
		fmt.Fprintln(bw, "# query/graph alphabet advisories:")
		for _, a := range r.Advisories {
			fmt.Fprintf(bw, "# [%s] %s\n", a.Check, a.Diagnostic)
		}
	}
	fmt.Fprintf(bw, "%d finding(s), %d suppressed — %d function(s), %d vertices, %d edges\n",
		len(r.Findings), r.Suppressed, r.Stats.Functions, r.Stats.Vertices, r.Stats.Edges)
	return bw.Flush()
}

func indent(s, pad string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = pad + l
	}
	return strings.Join(lines, "\n") + "\n"
}

// WriteJSON renders the rpqcheck/1 document.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ---- baselines ----

// Baseline is the committed set of accepted findings. Entries are stable
// keys — check, file, and bound symbols, but no positions — so unrelated
// edits to a file do not churn the baseline, while full findings are kept
// alongside for human review.
type Baseline struct {
	Schema   string    `json:"schema"`
	Keys     []string  `json:"keys"`
	Findings []Finding `json:"findings"`
}

// BaselineKey is the stable identity of a finding for baseline diffing.
func BaselineKey(f Finding) string {
	parts := []string{f.Check, f.File}
	params := make([]string, 0, len(f.Bindings))
	for p := range f.Bindings {
		params = append(params, p)
	}
	sort.Strings(params)
	for _, p := range params {
		parts = append(parts, p+"="+f.Bindings[p])
	}
	return strings.Join(parts, "|")
}

// NewBaseline captures the report's non-suppressed findings.
func NewBaseline(r *Report) *Baseline {
	b := &Baseline{Schema: "rpqcheck-baseline/1"}
	seen := map[string]bool{}
	for _, f := range r.Findings {
		if f.Suppressed {
			continue
		}
		k := BaselineKey(f)
		if !seen[k] {
			seen[k] = true
			b.Keys = append(b.Keys, k)
		}
		b.Findings = append(b.Findings, f)
	}
	sort.Strings(b.Keys)
	return b
}

// LoadBaseline reads a baseline file.
func LoadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("gocheck: %s: %w", path, err)
	}
	if b.Schema != "rpqcheck-baseline/1" {
		return nil, fmt.Errorf("gocheck: %s: unexpected schema %q", path, b.Schema)
	}
	return &b, nil
}

// WriteBaseline writes the baseline document.
func (b *Baseline) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// Diff splits the report's findings into new (not in the baseline) and
// fixed baseline keys: keys of a check the report ran that it no longer
// found. Keys of checks the report did not run are neither.
func (b *Baseline) Diff(r *Report) (news []Finding, fixed []string) {
	have := map[string]bool{}
	for _, k := range b.Keys {
		have[k] = true
	}
	current := map[string]bool{}
	for _, f := range r.Findings {
		if f.Suppressed {
			continue
		}
		k := BaselineKey(f)
		current[k] = true
		if !have[k] {
			news = append(news, f)
		}
	}
	for _, k := range b.Keys {
		check, _, _ := strings.Cut(k, "|")
		if !current[k] && slices.Contains(r.Checks, check) {
			fixed = append(fixed, k)
		}
	}
	return news, fixed
}

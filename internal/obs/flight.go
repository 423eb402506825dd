package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"sync"
	"time"
)

// BundleSchema identifies the diagnostic-bundle layout written by
// Watchdog.Dump; bump it when the file set or meta shape changes.
const BundleSchema = "rpq-bundle/3"

// Watchdog turns anomalies — deadline breaches, cancellations, hung or slow
// queries — into diagnostic bundles: a directory holding the query's live
// progress snapshot, goroutine and heap dumps, and (when available) the
// partial explain profile. The zero value is
// inert; set Dir to enable dumping.
type Watchdog struct {
	// Dir is the directory bundles are written under (created on demand).
	Dir string
	// Slow, when > 0, is the wall-time threshold above which a completed
	// query warrants a bundle (the rpq layer checks it at query end).
	Slow time.Duration
	// Hung, when > 0, is the in-flight duration after which Arm's timer
	// fires a "hung" bundle for a still-running query.
	Hung time.Duration
	// MaxBundles, when > 0, bounds the bundles kept in Dir; the oldest are
	// pruned after each dump.
	MaxBundles int
	// OnBundle, when non-nil, is called with each written bundle's path.
	OnBundle func(path string)

	mu  sync.Mutex
	seq int
}

// BundleMeta is the meta.json of a bundle.
type BundleMeta struct {
	Schema    string        `json:"schema"`
	Reason    string        `json:"reason"`
	WrittenAt string        `json:"written_at"`
	Query     QuerySnapshot `json:"query"`
}

// Enabled reports whether the watchdog can write bundles.
func (w *Watchdog) Enabled() bool { return w != nil && w.Dir != "" }

// Dump writes one diagnostic bundle for q and returns its directory:
//
//	meta.json       BundleMeta (schema, reason, progress snapshot)
//	goroutines.txt  full goroutine stacks (pprof debug=2)
//	heap.pprof      heap profile in pprof binary format
//	explain.json    partial explain profile, when explain is non-nil
//	lint.json       the query's static-analysis findings, when q.Lint is set
//
// reason names the trigger ("deadline", "canceled", "slow", "hung"). explain
// is any JSON-marshalable value (typically *core.Explain); nil skips the
// file. Dump never panics on I/O errors — it returns the first one.
func (w *Watchdog) Dump(q *InflightQuery, reason string, explain any) (string, error) {
	if !w.Enabled() {
		return "", fmt.Errorf("obs: watchdog has no dump directory")
	}
	w.mu.Lock()
	w.seq++
	seq := w.seq
	w.mu.Unlock()

	snap := QuerySnapshot{}
	if q != nil {
		snap = q.Snapshot()
	}
	name := fmt.Sprintf("%s-q%d-%s-%d", time.Now().UTC().Format("20060102T150405"), snap.ID, reason, seq)
	dir := filepath.Join(w.Dir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("obs: create bundle dir: %w", err)
	}

	meta := BundleMeta{
		Schema:    BundleSchema,
		Reason:    reason,
		WrittenAt: time.Now().UTC().Format(time.RFC3339Nano),
		Query:     snap,
	}
	if err := writeJSONFile(filepath.Join(dir, "meta.json"), meta); err != nil {
		return dir, err
	}

	gf, err := os.Create(filepath.Join(dir, "goroutines.txt"))
	if err != nil {
		return dir, fmt.Errorf("obs: create goroutines.txt: %w", err)
	}
	pprof.Lookup("goroutine").WriteTo(gf, 2)
	if err := gf.Close(); err != nil {
		return dir, err
	}

	hf, err := os.Create(filepath.Join(dir, "heap.pprof"))
	if err != nil {
		return dir, fmt.Errorf("obs: create heap.pprof: %w", err)
	}
	pprof.Lookup("heap").WriteTo(hf, 0)
	if err := hf.Close(); err != nil {
		return dir, err
	}

	if explain != nil {
		if err := writeJSONFile(filepath.Join(dir, "explain.json"), explain); err != nil {
			return dir, err
		}
	}

	if q != nil && q.Lint != nil {
		if err := writeJSONFile(filepath.Join(dir, "lint.json"), q.Lint); err != nil {
			return dir, err
		}
	}

	w.prune()
	if w.OnBundle != nil {
		w.OnBundle(dir)
	}
	return dir, nil
}

// Arm starts the hung-query timer for q: if the returned stop function is
// not called within w.Hung, a "hung" bundle is dumped for the still-running
// query (at most once per Arm). A zero Hung disables the timer; stop is
// always safe to call.
func (w *Watchdog) Arm(q *InflightQuery) (stop func()) {
	if !w.Enabled() || w.Hung <= 0 {
		return func() {}
	}
	t := time.AfterFunc(w.Hung, func() {
		w.Dump(q, "hung", nil)
	})
	return func() { t.Stop() }
}

// prune removes the oldest bundle directories beyond MaxBundles. Directory
// names sort chronologically (UTC timestamp prefix), so lexicographic order
// is age order.
func (w *Watchdog) prune() {
	if w.MaxBundles <= 0 {
		return
	}
	entries, err := os.ReadDir(w.Dir)
	if err != nil {
		return
	}
	var dirs []string
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, e.Name())
		}
	}
	if len(dirs) <= w.MaxBundles {
		return
	}
	sort.Strings(dirs)
	for _, d := range dirs[:len(dirs)-w.MaxBundles] {
		os.RemoveAll(filepath.Join(w.Dir, d))
	}
}

// Bundle is a loaded diagnostic bundle.
type Bundle struct {
	// Dir is the bundle directory it was loaded from.
	Dir string
	// Meta is meta.json.
	Meta BundleMeta
	// Goroutines is the full text of goroutines.txt.
	Goroutines string
	// Explain holds explain.json when present, else nil.
	Explain map[string]any
	// Lint holds the raw lint.json when present, else nil; the rpq layer
	// decodes it into []analyze.Diagnostic.
	Lint json.RawMessage
}

// LoadBundle reads a bundle directory written by Dump. Missing optional
// files (explain.json) are tolerated; a missing or malformed meta.json is an
// error.
func LoadBundle(dir string) (*Bundle, error) {
	b := &Bundle{Dir: dir}
	mb, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return nil, fmt.Errorf("obs: read bundle meta: %w", err)
	}
	if err := json.Unmarshal(mb, &b.Meta); err != nil {
		return nil, fmt.Errorf("obs: parse bundle meta: %w", err)
	}
	if b.Meta.Schema != BundleSchema {
		return nil, fmt.Errorf("obs: unknown bundle schema %q", b.Meta.Schema)
	}
	if gb, err := os.ReadFile(filepath.Join(dir, "goroutines.txt")); err == nil {
		b.Goroutines = string(gb)
	}
	if xb, err := os.ReadFile(filepath.Join(dir, "explain.json")); err == nil {
		json.Unmarshal(xb, &b.Explain)
	}
	if lb, err := os.ReadFile(filepath.Join(dir, "lint.json")); err == nil {
		b.Lint = json.RawMessage(lb)
	}
	return b, nil
}

// writeJSONFile marshals v with indentation and writes it atomically enough
// for diagnostics (single write, then close).
func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: marshal %s: %w", filepath.Base(path), err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

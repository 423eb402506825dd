package prof

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Schema identifies the /debug/rpq/prof document format.
const Schema = "rpq-prof/1"

// windowInfo is one window row in the rpq-prof/1 listing.
type windowInfo struct {
	Window
	DurationMS int64 `json:"duration_ms"`
	CPUBytes   int   `json:"cpu_bytes"`
	HeapBytes  int   `json:"heap_bytes"`
}

// profDoc is the rpq-prof/1 index document.
type profDoc struct {
	Schema     string       `json:"schema"`
	Now        time.Time    `json:"now"`
	WindowMS   int64        `json:"window_ms"`
	IntervalMS int64        `json:"interval_ms"`
	Windows    []windowInfo `json:"windows"`
}

// Handler serves the profiler's HTTP surface. Mount it at /debug/rpq/prof
// (it routes on the path suffix):
//
//	GET .../prof                    window list (rpq-prof/1)
//	GET .../prof/download?window=N  raw gzipped pprof proto (&profile=cpu|heap)
//
// Analysis (top frames, label focus, diffs) is `go tool pprof` on the
// downloaded bytes; docs/observability.md has the recipes.
func (p *Profiler) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(strings.TrimSuffix(r.URL.Path, "/"), "/download") {
			p.serveDownload(w, r)
			return
		}
		p.serveIndex(w)
	})
}

func (p *Profiler) serveIndex(w http.ResponseWriter) {
	doc := profDoc{
		Schema:     Schema,
		Now:        time.Now().UTC(),
		WindowMS:   p.window.Milliseconds(),
		IntervalMS: p.interval.Milliseconds(),
	}
	for _, win := range p.store.List() {
		doc.Windows = append(doc.Windows, windowInfo{
			Window:     win,
			DurationMS: win.End.Sub(win.Start).Milliseconds(),
			CPUBytes:   len(win.CPU),
			HeapBytes:  len(win.Heap),
		})
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc)
}

func (p *Profiler) serveDownload(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	idStr := q.Get("window")
	id, err := strconv.ParseInt(idStr, 10, 64)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad window id %q", idStr), http.StatusBadRequest)
		return
	}
	win, ok := p.store.Get(id)
	if !ok {
		http.Error(w, fmt.Sprintf("window %d not retained", id), http.StatusBadRequest)
		return
	}
	kind := q.Get("profile")
	var raw []byte
	switch kind {
	case "", "cpu":
		kind, raw = "cpu", win.CPU
	case "heap":
		raw = win.Heap
	default:
		http.Error(w, fmt.Sprintf("bad profile kind %q (want cpu or heap)", kind), http.StatusBadRequest)
		return
	}
	if len(raw) == 0 {
		http.Error(w, fmt.Sprintf("window %d has no %s profile: %s", id, kind, win.Err), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf(`attachment; filename="rpq-%s-window-%d.pb.gz"`, kind, id))
	w.Write(raw)
}

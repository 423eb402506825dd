package prof

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"
)

// handlerFixture returns a profiler (not started) whose store holds two
// windows indexed the way the capture loop indexes them: exist-shaped then
// violations-shaped.
func handlerFixture(t *testing.T) (*Profiler, int64, int64) {
	t.Helper()
	p := newTestProfiler(time.Second, time.Minute)
	add := func(start int64, kind string) int64 {
		w := &Window{
			Start: time.Unix(start, 0), End: time.Unix(start+10, 0),
			CPU: encodeTestProfile(fixtureSpec(kind)),
		}
		w.indexCPU()
		return p.store.Add(w)
	}
	return p, add(1700000000, "exist"), add(1700000060, "violations")
}

func getJSON(t *testing.T, p *Profiler, url string, out any) int {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	rec := httptest.NewRecorder()
	p.Handler().ServeHTTP(rec, req)
	if rec.Code == 200 {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("GET %s: bad JSON: %v\n%s", url, err, rec.Body.String())
		}
	}
	return rec.Code
}

func TestHandlerIndexSchema(t *testing.T) {
	p, idA, _ := handlerFixture(t)
	var doc struct {
		Schema   string `json:"schema"`
		WindowMS int64  `json:"window_ms"`
		Windows  []struct {
			ID         int64               `json:"id"`
			CPUSamples int                 `json:"cpu_samples"`
			Labels     map[string][]string `json:"labels"`
		} `json:"windows"`
	}
	if code := getJSON(t, p, "/debug/rpq/prof", &doc); code != 200 {
		t.Fatalf("status %d", code)
	}
	if doc.Schema != Schema {
		t.Fatalf("schema = %q, want %q", doc.Schema, Schema)
	}
	if doc.WindowMS != 1000 {
		t.Fatalf("window_ms = %d", doc.WindowMS)
	}
	if len(doc.Windows) != 2 || doc.Windows[0].ID != idA {
		t.Fatalf("windows = %+v", doc.Windows)
	}
	if got := doc.Windows[0].Labels["rpq_kind"]; len(got) != 1 || got[0] != "exist" {
		t.Fatalf("window labels = %v", doc.Windows[0].Labels)
	}
	if got := doc.Windows[1].Labels["rpq_trace_id"]; len(got) != 2 {
		t.Fatalf("window trace IDs = %v", got)
	}
	if doc.Windows[0].CPUSamples != 4 {
		t.Fatalf("cpu_samples = %d, want 4", doc.Windows[0].CPUSamples)
	}
}

func TestHandlerDownloadRoundtrips(t *testing.T) {
	p, idA, _ := handlerFixture(t)
	req := httptest.NewRequest("GET", "/debug/rpq/prof/download?window=1", nil)
	rec := httptest.NewRecorder()
	p.Handler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if w, _ := p.store.Get(idA); !bytes.Equal(rec.Body.Bytes(), w.CPU) {
		t.Fatalf("downloaded %d bytes, window %d holds %d", rec.Body.Len(), idA, len(w.CPU))
	}
	prof, err := ParseProfile(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("downloaded bytes do not decode: %v", err)
	}
	if len(prof.Samples) != 4 {
		t.Fatalf("downloaded profile has %d samples", len(prof.Samples))
	}
}

func TestHandlerErrors(t *testing.T) {
	p, _, _ := handlerFixture(t)
	for _, url := range []string{
		"/debug/rpq/prof/download?window=99",
		"/debug/rpq/prof/download?window=abc",
		"/debug/rpq/prof/download?window=1&profile=wat",
		"/debug/rpq/prof/download?window=1&profile=heap",
	} {
		req := httptest.NewRequest("GET", url, nil)
		rec := httptest.NewRecorder()
		p.Handler().ServeHTTP(rec, req)
		if rec.Code != 400 {
			t.Fatalf("GET %s: status %d, want 400", url, rec.Code)
		}
	}
}

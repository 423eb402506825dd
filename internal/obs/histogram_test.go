package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestHistogramExemplars(t *testing.T) {
	var h Histogram
	h.Observe(2 * time.Millisecond) // untraced: no exemplar
	h.ObserveTrace(3*time.Millisecond, "aaaa0000aaaa0000aaaa0000aaaa0000")
	h.ObserveTrace(900*time.Millisecond, "bbbb1111bbbb1111bbbb1111bbbb1111")
	h.ObserveTrace(950*time.Millisecond, "cccc2222cccc2222cccc2222cccc2222")

	ex := h.Exemplars()
	if len(ex) != 2 {
		t.Fatalf("exemplars = %+v", ex)
	}
	// Slowest bucket first; the later observation in a bucket wins.
	if ex[0].TraceID != "cccc2222cccc2222cccc2222cccc2222" {
		t.Fatalf("top exemplar = %+v", ex[0])
	}
	if ex[1].TraceID != "aaaa0000aaaa0000aaaa0000aaaa0000" {
		t.Fatalf("second exemplar = %+v", ex[1])
	}
	if ex[0].Value != 950*time.Millisecond || ex[0].ValueMS != 950 {
		t.Fatalf("exemplar value = %+v", ex[0])
	}
}

func TestExemplarExposition(t *testing.T) {
	r := NewRegistry()
	h := r.LabeledHistogram("rpq_http_request_seconds", "latency", "route", "query")
	h.ObserveTrace(10*time.Millisecond, "dddd3333dddd3333dddd3333dddd3333")
	h.Observe(20 * time.Microsecond)

	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()

	// The traced bucket line carries an OpenMetrics exemplar...
	want := `# {trace_id="dddd3333dddd3333dddd3333dddd3333"} 0.01`
	found := false
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "_hist_bucket") && strings.Contains(line, want) {
			found = true
			if !strings.Contains(line, `route="query"`) {
				t.Fatalf("exemplar line lost its labels: %s", line)
			}
		}
	}
	if !found {
		t.Fatalf("no exemplar in exposition:\n%s", out)
	}
	// ...and untraced families don't grow exemplars.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "#") && strings.Contains(line, "trace_id") &&
			!strings.Contains(line, "dddd3333") {
			t.Fatalf("unexpected exemplar: %s", line)
		}
	}
}

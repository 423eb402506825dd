package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestExemplarExposition pins that /metrics carries no exemplars: it
// declares text/plain; version=0.0.4, whose sample grammar is
// name{labels} value [timestamp] and has no OpenMetrics "# {…}" suffix.
// Every bucket line of a histogram observed by a traced request is a bare
// sample.
func TestExemplarExposition(t *testing.T) {
	r := NewRegistry()
	h := r.LabeledHistogram("rpq_http_request_seconds", "latency", "route", "query")
	h.Observe(10 * time.Millisecond)
	h.Observe(20 * time.Microsecond)

	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	buckets := 0
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if strings.Contains(line, "#") || len(strings.Fields(line)) != 2 {
			t.Errorf("not a bare 0.0.4 sample: %q", line)
		}
		if strings.HasPrefix(line, "rpq_http_request_seconds_bucket{") {
			buckets++
			if !strings.Contains(line, `route="query",le="`) {
				t.Errorf("bucket line lost its labels: %s", line)
			}
		}
	}
	if buckets == 0 {
		t.Fatalf("no bucket lines in exposition:\n%s", out)
	}
}

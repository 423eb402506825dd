package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// fakePinner implements ProfilePinner without a real capture loop.
type fakePinner struct {
	cpu    []byte
	id     int64
	ok     bool
	reason string
	calls  int
}

func (f *fakePinner) PinActive(reason string) ([]byte, int64, bool) {
	f.calls++
	f.reason = reason
	return f.cpu, f.id, f.ok
}

func TestWatchdogDumpPinsProfile(t *testing.T) {
	pinner := &fakePinner{cpu: []byte("fake-pprof-bytes"), id: 7, ok: true}
	wd := &Watchdog{Dir: t.TempDir(), Profiler: pinner}
	reg := NewInflight()
	q := reg.Begin("exist", "_* use(x)", "basic", TraceContext{})

	path, err := wd.Dump(q, "slow", nil)
	if err != nil {
		t.Fatal(err)
	}
	if pinner.calls != 1 || pinner.reason != "slow" {
		t.Fatalf("pinner called %d times with reason %q", pinner.calls, pinner.reason)
	}

	b, err := LoadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Meta.ProfileWindow != 7 {
		t.Fatalf("meta.profile_window = %d, want 7", b.Meta.ProfileWindow)
	}
	if !bytes.Equal(b.Profile, pinner.cpu) {
		t.Fatalf("bundle profile = %q", b.Profile)
	}
	if _, err := os.Stat(filepath.Join(path, "profile.pb.gz")); err != nil {
		t.Fatalf("profile.pb.gz missing: %v", err)
	}
}

func TestWatchdogDumpPinnerEmpty(t *testing.T) {
	// A pinner with nothing captured must not fail the dump or write the file.
	pinner := &fakePinner{ok: false}
	wd := &Watchdog{Dir: t.TempDir(), Profiler: pinner}
	reg := NewInflight()
	q := reg.Begin("exist", "q", "basic", TraceContext{})

	path, err := wd.Dump(q, "hung", nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Meta.ProfileWindow != 0 || b.Profile != nil {
		t.Fatalf("empty pinner produced profile: meta=%d bytes=%d", b.Meta.ProfileWindow, len(b.Profile))
	}
}

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

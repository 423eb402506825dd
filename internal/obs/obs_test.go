package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRingSinkWraparound(t *testing.T) {
	r := NewRingSink(4)
	for i := 0; i < 10; i++ {
		r.Emit(Event{Kind: KCounter, Name: "n", Value: int64(i)})
	}
	if r.Total() != 10 {
		t.Fatalf("total = %d, want 10", r.Total())
	}
	got := r.Snapshot()
	if len(got) != 4 {
		t.Fatalf("snapshot len = %d, want 4", len(got))
	}
	for i, e := range got {
		if e.Value != int64(6+i) {
			t.Errorf("snapshot[%d].Value = %d, want %d", i, e.Value, 6+i)
		}
	}
}

func TestNopTracerDisabled(t *testing.T) {
	if Nop().Enabled() {
		t.Fatal("Nop().Enabled() = true")
	}
	Nop().Emit(Ev(KCounter, "x", 1)) // must not panic
}

func TestMultiTracer(t *testing.T) {
	a, b := NewRingSink(8), NewRingSink(8)
	m := Multi{nil, a, b}
	if !m.Enabled() {
		t.Fatal("Multi not enabled")
	}
	m.Emit(Ev(KHighWater, "worklist", 7))
	if a.Total() != 1 || b.Total() != 1 {
		t.Fatalf("fan-out missed a sink: %d %d", a.Total(), b.Total())
	}
	if (Multi{nil}).Enabled() {
		t.Fatal("Multi of nils enabled")
	}
}

func TestNDJSONSink(t *testing.T) {
	var buf bytes.Buffer
	s := NewNDJSONSink(&buf)
	s.Emit(Event{Time: time.UnixMicro(42), Kind: KPhaseBegin, Name: "solve"})
	s.Emit(Event{Time: time.UnixMicro(99), Kind: KPhaseEnd, Name: "solve", Dur: 57 * time.Microsecond})
	s.Emit(Event{Time: time.UnixMicro(100), Kind: KCounter, Name: "match_calls", Value: 12})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want 3", len(lines))
	}
	for i, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("line %d not JSON: %v\n%s", i, err, ln)
		}
	}
	var end map[string]any
	json.Unmarshal([]byte(lines[1]), &end)
	if end["kind"] != "phase_end" || end["dur_us"] != float64(57) {
		t.Errorf("phase_end line wrong: %v", end)
	}
	var ctr map[string]any
	json.Unmarshal([]byte(lines[2]), &ctr)
	if ctr["name"] != "match_calls" || ctr["value"] != float64(12) {
		t.Errorf("counter line wrong: %v", ctr)
	}
}

func TestChromeSinkValidJSON(t *testing.T) {
	var buf bytes.Buffer
	s := NewChromeSink(&buf)
	now := time.Now()
	s.Emit(Event{Time: now, Kind: KPhaseBegin, Name: "solve"})
	s.Emit(Event{Time: now.Add(time.Millisecond), Kind: KHighWater, Name: "worklist", Value: 40})
	s.Emit(Event{Time: now.Add(2 * time.Millisecond), Kind: KPhaseEnd, Name: "solve"})
	s.Emit(Event{Time: now.Add(2 * time.Millisecond), Kind: KSpan, Name: "compile", Dur: 300 * time.Microsecond})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("trace is not a JSON array: %v\n%s", err, buf.String())
	}
	if len(evs) != 4 {
		t.Fatalf("events = %d, want 4", len(evs))
	}
	wantPh := []string{"B", "C", "E", "X"}
	for i, e := range evs {
		if e["ph"] != wantPh[i] {
			t.Errorf("event %d ph = %v, want %s", i, e["ph"], wantPh[i])
		}
	}
	if evs[3]["dur"] != float64(300) {
		t.Errorf("span dur = %v, want 300", evs[3]["dur"])
	}
}

func TestRegistryPrometheus(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("rpq_worklist_depth", "current solver worklist depth")
	g.Set(123)
	r.Gauge("rpq_table_bytes", "approximate table bytes").Add(456)
	if r.Gauge("rpq_worklist_depth", "ignored") != g {
		t.Fatal("re-registration returned a new gauge")
	}
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"# HELP rpq_worklist_depth current solver worklist depth",
		"# TYPE rpq_worklist_depth gauge",
		"rpq_worklist_depth 123",
		"rpq_table_bytes 456",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestGaugeConcurrency(t *testing.T) {
	r := NewRegistry()
	sg := NewSolverGauges(r)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				sg.Sample(int64(j), int64(j), int64(j), int64(j))
				sg.Queries.Add(1)
			}
		}(i)
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				var buf bytes.Buffer
				r.WritePrometheus(&buf)
			}
		}
	}()
	wg.Wait()
	close(done)
	if got := sg.Queries.Value(); got != 4000 {
		t.Fatalf("queries = %d, want 4000", got)
	}
}

func TestServeEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("rpq_worklist_depth", "d").Set(7)
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) (int, string) {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "rpq_worklist_depth 7") {
		t.Errorf("/metrics = %d\n%s", code, body)
	}
	if code, body := get("/debug/vars"); code != 200 || !strings.Contains(body, "rpq_metrics") {
		t.Errorf("/debug/vars = %d\n%s", code, body)
	}
	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Errorf("/debug/pprof/ = %d", code)
	}
	if code, _ := get("/nope"); code != 404 {
		t.Errorf("/nope = %d, want 404", code)
	}
}

func TestSlowLog(t *testing.T) {
	var buf bytes.Buffer
	l := NewSlowLog(&buf, 10*time.Millisecond)
	if l.Observe("exist", "fast", 2*time.Millisecond, 1, nil) {
		t.Fatal("fast query recorded")
	}
	if !l.Observe("exist", "(!def(x))* use(x)", 25*time.Millisecond, 3, map[string]int{"worklist": 9}) {
		t.Fatal("slow query not recorded")
	}
	if l.Count() != 1 {
		t.Fatalf("count = %d, want 1", l.Count())
	}
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("slow record not JSON: %v\n%s", err, buf.String())
	}
	if rec["query"] != "(!def(x))* use(x)" || rec["dur_ms"] != float64(25) || rec["answers"] != float64(3) {
		t.Errorf("record wrong: %v", rec)
	}
	var nilLog *SlowLog
	if nilLog.Observe("exist", "q", time.Hour, 0, nil) || nilLog.Count() != 0 {
		t.Error("nil SlowLog not a no-op")
	}
}

func TestFormatEvents(t *testing.T) {
	t0 := time.Now()
	s := FormatEvents([]Event{
		{Time: t0, Kind: KPhaseBegin, Name: "solve"},
		{Time: t0.Add(time.Millisecond), Kind: KPhaseEnd, Name: "solve", Dur: time.Millisecond},
	})
	if !strings.Contains(s, "phase_begin") || !strings.Contains(s, "solve") {
		t.Errorf("format missing fields:\n%s", s)
	}
	if FormatEvents(nil) != "" {
		t.Error("empty events should format to empty string")
	}
}

func TestChromeSinkFlushMidStream(t *testing.T) {
	var buf bytes.Buffer
	s := NewChromeSink(&buf)
	s.Emit(Event{Time: time.Now(), Kind: KPhaseBegin, Name: "solve"})
	// Buffered: nothing reaches the writer until Flush.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"solve"`) {
		t.Fatalf("Flush did not push buffered events:\n%q", buf.String())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("trace after flush+close invalid: %v\n%s", err, buf.String())
	}
}

func TestFlushHelperRecursesMulti(t *testing.T) {
	var b1, b2 bytes.Buffer
	c1, c2 := NewChromeSink(&b1), NewChromeSink(&b2)
	m := Multi{NewRingSink(4), Multi{c1}, c2}
	m.Emit(Event{Time: time.Now(), Kind: KPhaseBegin, Name: "solve"})
	Flush(m)
	for i, b := range []*bytes.Buffer{&b1, &b2} {
		if !strings.Contains(b.String(), `"solve"`) {
			t.Errorf("Flush(Multi) missed nested sink %d:\n%q", i, b.String())
		}
	}
	// Non-flusher tracers are a no-op, not a panic.
	Flush(NewRingSink(1))
	Flush(nil)
}

package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"
)

// NDJSONSink writes one JSON object per event, flushed per line, so a run
// can be watched in flight with tail -f. The schema is documented in
// docs/observability.md.
type NDJSONSink struct {
	mu sync.Mutex
	w  io.Writer
}

// NewNDJSONSink returns a sink writing NDJSON events to w.
func NewNDJSONSink(w io.Writer) *NDJSONSink { return &NDJSONSink{w: w} }

// Enabled implements Tracer.
func (s *NDJSONSink) Enabled() bool { return true }

// Emit implements Tracer.
func (s *NDJSONSink) Emit(e Event) {
	// Hand-rolled marshalling: the schema is flat and fixed, and this
	// avoids reflection in what can be a frequently-hit path.
	buf := make([]byte, 0, 128)
	buf = append(buf, `{"ts_us":`...)
	buf = strconv.AppendInt(buf, e.Time.UnixMicro(), 10)
	buf = append(buf, `,"kind":"`...)
	buf = append(buf, e.Kind.String()...)
	buf = append(buf, '"')
	if e.Name != "" {
		buf = append(buf, `,"name":`...)
		buf = strconv.AppendQuote(buf, e.Name)
	}
	if e.Value != 0 {
		buf = append(buf, `,"value":`...)
		buf = strconv.AppendInt(buf, e.Value, 10)
	}
	if e.Dur != 0 {
		buf = append(buf, `,"dur_us":`...)
		buf = strconv.AppendInt(buf, e.Dur.Microseconds(), 10)
	}
	if e.TraceID != "" {
		buf = append(buf, `,"trace_id":"`...)
		buf = append(buf, e.TraceID...)
		buf = append(buf, '"')
	}
	if e.SpanID != "" {
		buf = append(buf, `,"span_id":"`...)
		buf = append(buf, e.SpanID...)
		buf = append(buf, '"')
	}
	buf = append(buf, '}', '\n')
	s.mu.Lock()
	s.w.Write(buf)
	s.mu.Unlock()
}

// ChromeSink writes the Chrome trace_event JSON array format, loadable in
// chrome://tracing or https://ui.perfetto.dev. Phases become duration
// events ("B"/"E"), retrospective spans become complete events ("X"), and
// counters/high-water marks become counter events ("C"). Every event is on
// one timeline lane (tid 1).
//
// Writes are buffered; Close writes the closing bracket and flushes. Flush
// pushes buffered events without closing — solvers call it on error paths —
// and the format tolerates a missing closing bracket, so even a crashed
// run's trace still loads.
type ChromeSink struct {
	mu    sync.Mutex
	w     *bufio.Writer
	first bool
	pid   int
}

// NewChromeSink returns a sink writing trace_event JSON to w.
func NewChromeSink(w io.Writer) *ChromeSink {
	s := &ChromeSink{w: bufio.NewWriter(w), first: true, pid: 1}
	io.WriteString(s.w, "[\n")
	return s
}

// Enabled implements Tracer.
func (s *ChromeSink) Enabled() bool { return true }

// Emit implements Tracer.
func (s *ChromeSink) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts := e.Time.UnixMicro()
	// traceArg carries the request's trace identity into the event's args so
	// a Perfetto query can slice one request out of a multi-request trace.
	traceArg := ""
	if e.TraceID != "" {
		traceArg = fmt.Sprintf(`,"args":{"trace_id":%q}`, e.TraceID)
	}
	var line string
	switch e.Kind {
	case KPhaseBegin:
		line = fmt.Sprintf(`{"name":%q,"ph":"B","ts":%d,"pid":%d,"tid":1%s}`, e.Name, ts, s.pid, traceArg)
	case KPhaseEnd:
		line = fmt.Sprintf(`{"name":%q,"ph":"E","ts":%d,"pid":%d,"tid":1%s}`, e.Name, ts, s.pid, traceArg)
	case KSpan:
		// Complete event: ts is the start, dur the length.
		line = fmt.Sprintf(`{"name":%q,"ph":"X","ts":%d,"dur":%d,"pid":%d,"tid":1%s}`,
			e.Name, ts-e.Dur.Microseconds(), e.Dur.Microseconds(), s.pid, traceArg)
	case KCounter, KHighWater, KTableGrowth:
		if e.TraceID != "" {
			line = fmt.Sprintf(`{"name":%q,"ph":"C","ts":%d,"pid":%d,"tid":1,"args":{"value":%d,"trace_id":%q}}`,
				e.Name, ts, s.pid, e.Value, e.TraceID)
		} else {
			line = fmt.Sprintf(`{"name":%q,"ph":"C","ts":%d,"pid":%d,"tid":1,"args":{"value":%d}}`,
				e.Name, ts, s.pid, e.Value)
		}
	default:
		return
	}
	if !s.first {
		io.WriteString(s.w, ",\n")
	}
	s.first = false
	io.WriteString(s.w, line)
}

// Flush implements Flusher: buffered events reach the underlying writer
// without terminating the array.
func (s *ChromeSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Flush()
}

// Close terminates the JSON array and flushes.
func (s *ChromeSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := io.WriteString(s.w, "\n]\n"); err != nil {
		return err
	}
	return s.w.Flush()
}

// FormatEvents renders events as an aligned human-readable table, relative
// to the first event's timestamp — the text fallback used by examples and
// the CLI when no machine sink is requested.
func FormatEvents(evs []Event) string {
	if len(evs) == 0 {
		return ""
	}
	t0 := evs[0].Time
	out := ""
	for _, e := range evs {
		out += fmt.Sprintf("%10.3fms  %-12s %-24s", float64(e.Time.Sub(t0).Microseconds())/1000, e.Kind, e.Name)
		if e.Dur != 0 {
			out += fmt.Sprintf(" dur=%s", e.Dur.Round(time.Microsecond))
		}
		if e.Value != 0 {
			out += fmt.Sprintf(" value=%d", e.Value)
		}
		out += "\n"
	}
	return out
}

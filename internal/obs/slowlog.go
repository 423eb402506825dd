package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// SlowLog records queries whose wall-clock time crosses a threshold, one
// NDJSON record per slow query. A nil *SlowLog is a valid no-op, so callers
// thread it unconditionally.
type SlowLog struct {
	mu        sync.Mutex
	w         io.Writer
	threshold time.Duration
	n         int
}

// NewSlowLog returns a log writing to w for queries at or above threshold.
func NewSlowLog(w io.Writer, threshold time.Duration) *SlowLog {
	return &SlowLog{w: w, threshold: threshold}
}

// slowRecord is the NDJSON schema of one slow-query entry.
type slowRecord struct {
	TS      string  `json:"ts"`
	Query   string  `json:"query"`
	Kind    string  `json:"kind"`
	DurMS   float64 `json:"dur_ms"`
	Answers int     `json:"answers"`
	Table   string  `json:"table,omitempty"`
	// CPUMS and AllocBytes are the query's attributed CPU time and heap
	// allocation (process deltas over the run; see Usage).
	CPUMS      float64 `json:"cpu_ms,omitempty"`
	AllocBytes int64   `json:"alloc_bytes,omitempty"`
	// HotStates holds the top few hottest automaton states by visit count
	// when the run carried an explain profile, so a slow entry localizes
	// its cost without a rerun.
	HotStates any `json:"hot_states,omitempty"`
	Stats     any `json:"stats,omitempty"`
	// Bundle is the diagnostic-bundle directory the watchdog wrote for this
	// query, when one was produced.
	Bundle string `json:"bundle,omitempty"`
	// TraceID/SpanID are the W3C trace identity of the originating request,
	// when the run carried one, so a slow entry is greppable by the same key
	// as the access log and trace sinks.
	TraceID string `json:"trace_id,omitempty"`
	SpanID  string `json:"span_id,omitempty"`
}

// Observe records q's finished run when u.Wall reaches the threshold and
// reports whether it did. Query, kind and trace identity come from q, the
// duration and resource attribution from u. stats and hot may be any
// JSON-marshallable values (typically core.Stats and the explain profile's
// hottest states); an empty table, hot or bundle is omitted.
func (l *SlowLog) Observe(q *InflightQuery, u Usage, answers int, table string, stats, hot any, bundle string) bool {
	if l == nil || u.Wall < l.threshold {
		return false
	}
	rec := slowRecord{
		TS:         time.Now().UTC().Format(time.RFC3339Nano),
		Query:      q.query,
		Kind:       q.kind,
		DurMS:      float64(u.Wall.Microseconds()) / 1000,
		Answers:    answers,
		Table:      table,
		CPUMS:      float64(u.CPU.Microseconds()) / 1000,
		AllocBytes: u.Alloc,
		HotStates:  hot,
		Stats:      stats,
		Bundle:     bundle,
		TraceID:    q.traceID,
		SpanID:     q.spanID,
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return false
	}
	b = append(b, '\n')
	l.mu.Lock()
	l.w.Write(b)
	l.n++
	l.mu.Unlock()
	return true
}

// Count reports how many slow queries were recorded.
func (l *SlowLog) Count() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Threshold returns the configured threshold.
func (l *SlowLog) Threshold() time.Duration {
	if l == nil {
		return 0
	}
	return l.threshold
}

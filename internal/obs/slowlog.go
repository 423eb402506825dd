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
	// allocation (process deltas over the run; see SlowDetail).
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

// SlowDetail is the optional execution context of a slow-query entry.
type SlowDetail struct {
	// Table names the substitution-table representation ("hash"/"nested").
	Table string
	// CPUTime is the process CPU time attributed to the query (0 = unknown).
	CPUTime time.Duration
	// AllocBytes is the heap allocation attributed to the query (0 = unknown).
	AllocBytes int64
	// HotStates is any JSON-marshallable ranking of the hottest automaton
	// states (typically the explain profile's top 3 by visits).
	HotStates any
	// Bundle is the diagnostic-bundle path for this query, when the
	// watchdog wrote one.
	Bundle string
	// TraceID/SpanID are the originating request's W3C trace identity
	// (lowercase hex), empty when the run carried no trace context.
	TraceID string
	SpanID  string
}

// Observe records the query if it was slow; it reports whether it did.
// stats may be any JSON-marshallable value (typically core.Stats).
func (l *SlowLog) Observe(kind, query string, d time.Duration, answers int, stats any) bool {
	return l.ObserveDetail(kind, query, d, answers, stats, SlowDetail{})
}

// ObserveDetail is Observe with execution context: table representation
// and — when an explain profile was collected — the hottest automaton
// states.
func (l *SlowLog) ObserveDetail(kind, query string, d time.Duration, answers int, stats any, detail SlowDetail) bool {
	if l == nil || d < l.threshold {
		return false
	}
	rec := slowRecord{
		TS:         time.Now().UTC().Format(time.RFC3339Nano),
		Query:      query,
		Kind:       kind,
		DurMS:      float64(d.Microseconds()) / 1000,
		Answers:    answers,
		Table:      detail.Table,
		CPUMS:      float64(detail.CPUTime.Microseconds()) / 1000,
		AllocBytes: detail.AllocBytes,
		HotStates:  detail.HotStates,
		Stats:      stats,
		Bundle:     detail.Bundle,
		TraceID:    detail.TraceID,
		SpanID:     detail.SpanID,
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

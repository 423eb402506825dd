// Package obs is the query engine's observability layer: structured
// lifecycle tracing, live metrics with a Prometheus-style text exposition,
// expvar/pprof HTTP endpoints, and a slow-query log. It depends only on the
// standard library and is designed so that the disabled path costs one nil
// check in the solver hot loops.
//
// The pieces fit together as follows. Solvers emit Events through a Tracer;
// sinks (RingSink, NDJSONSink, ChromeSink) record them. Solvers also sample
// live gauges (SolverGauges) backed by an atomic Registry, which the HTTP
// server exposes at /metrics while a query is running. A SlowLog records
// queries whose wall-clock time crosses a threshold.
package obs

import (
	"fmt"
	"sync"
	"time"
)

// Kind classifies a trace event.
type Kind uint8

const (
	// KPhaseBegin marks the start of a named phase (Name = phase).
	KPhaseBegin Kind = iota
	// KPhaseEnd marks the end of a named phase; Dur holds its wall time.
	KPhaseEnd
	// KSpan is a retrospective completed phase (begin was not observed
	// live, e.g. pattern compilation done before the solver ran); Dur
	// holds its wall time.
	KSpan
	// KCounter is a monotonic total at emission time (Name, Value) —
	// match calls, cache hits/misses, worklist inserts, and similar.
	KCounter
	// KHighWater reports a new worklist high-water mark (Value = depth).
	KHighWater
	// KTableGrowth is a substitution-table growth snapshot (Name is
	// "substs" or "subst_bytes", Value the new figure).
	KTableGrowth
)

func (k Kind) String() string {
	switch k {
	case KPhaseBegin:
		return "phase_begin"
	case KPhaseEnd:
		return "phase_end"
	case KSpan:
		return "span"
	case KCounter:
		return "counter"
	case KHighWater:
		return "high_water"
	case KTableGrowth:
		return "table_growth"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one structured observation. The schema is deliberately flat —
// no per-event allocation is needed to build one.
type Event struct {
	// Time is the emission time.
	Time time.Time
	// Kind classifies the event.
	Kind Kind
	// Name is the phase name (phase/span events) or metric name
	// (counter/growth events).
	Name string
	// Value carries the metric value for counter/high-water/growth events.
	Value int64
	// Dur is the span duration for KPhaseEnd/KSpan.
	Dur time.Duration
	// TraceID/SpanID are the W3C trace identity of the request that caused
	// this event, as lowercase hex strings; empty for library runs without a
	// trace context. Solvers never set them — the StampTrace wrapper fills
	// them in on the way to the sinks.
	TraceID string
	SpanID  string
}

// Tracer receives events. Implementations must be safe for concurrent use;
// solvers call Emit from their run loop while sinks may be drained from
// other goroutines.
type Tracer interface {
	// Enabled reports whether events will be recorded; solvers use it to
	// skip building events entirely.
	Enabled() bool
	// Emit records one event.
	Emit(Event)
}

// nop is the disabled tracer.
type nop struct{}

func (nop) Enabled() bool { return false }
func (nop) Emit(Event)    {}

// Nop returns the no-op tracer: Enabled is false and Emit discards.
func Nop() Tracer { return nop{} }

// Ev builds an event stamped with the current time.
func Ev(k Kind, name string, value int64) Event {
	return Event{Time: time.Now(), Kind: k, Name: name, Value: value}
}

// SpanEv builds a completed-span event.
func SpanEv(k Kind, name string, d time.Duration) Event {
	return Event{Time: time.Now(), Kind: k, Name: name, Dur: d}
}

// Flusher is implemented by sinks that buffer events (ChromeSink). Solvers
// call Flush on error paths so a failing run still yields a complete trace
// file; Close also flushes.
type Flusher interface {
	Flush() error
}

// Flush flushes t if it (or, for a Multi, any member) buffers events.
func Flush(t Tracer) {
	switch s := t.(type) {
	case Flusher:
		s.Flush()
	case Multi:
		for _, m := range s {
			if m != nil {
				Flush(m)
			}
		}
	}
}

// Multi fans events out to several tracers; Enabled when any is.
type Multi []Tracer

// Enabled implements Tracer.
func (m Multi) Enabled() bool {
	for _, t := range m {
		if t != nil && t.Enabled() {
			return true
		}
	}
	return false
}

// Emit implements Tracer.
func (m Multi) Emit(e Event) {
	for _, t := range m {
		if t != nil && t.Enabled() {
			t.Emit(e)
		}
	}
}

// RingSink keeps the last N events in memory — the cheapest always-on sink
// for inspecting a run after the fact.
type RingSink struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	total int
}

// NewRingSink returns a ring buffer holding the last n events (n >= 1).
func NewRingSink(n int) *RingSink {
	if n < 1 {
		n = 1
	}
	return &RingSink{buf: make([]Event, 0, n)}
}

// Enabled implements Tracer.
func (r *RingSink) Enabled() bool { return true }

// Emit implements Tracer.
func (r *RingSink) Emit(e Event) {
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next] = e
	}
	r.next = (r.next + 1) % cap(r.buf)
	r.total++
	r.mu.Unlock()
}

// Total reports how many events were emitted (including overwritten ones).
func (r *RingSink) Total() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Snapshot returns the retained events in emission order.
func (r *RingSink) Snapshot() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	if len(r.buf) < cap(r.buf) {
		return append(out, r.buf...)
	}
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

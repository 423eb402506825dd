package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"time"

	"rpq"
)

// traceEvent is one entry of the Chrome trace_event format. Times are in
// microseconds.
type traceEvent struct {
	Name string           `json:"name"`
	Ph   string           `json:"ph"`
	TS   float64          `json:"ts"`
	Dur  float64          `json:"dur,omitempty"`
	PID  int              `json:"pid"`
	TID  int              `json:"tid"`
	Args map[string]int64 `json:"args,omitempty"`
}

// writeTraceFile writes the trace of a query's outcome to path: the
// result's Stats, or the partial Stats of an interrupted run. A run that
// failed without Stats gives an empty array.
func writeTraceFile(path string, res *rpq.Result, runErr error) error {
	var s *rpq.Stats
	var ie *rpq.InterruptError
	switch {
	case res != nil:
		s = &res.Stats
	case errors.As(runErr, &ie):
		s = &ie.Stats
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeTrace(f, s); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// micros converts d to the format's microseconds, keeping the nanoseconds
// as the fraction so a nested phase never rounds past its parent.
func micros(d time.Duration) float64 { return float64(d) / 1e3 }

// writeTrace renders a run's Stats as a Chrome trace_event JSON array, for
// chrome://tracing or ui.perfetto.dev. The timeline starts at 0 with
// compile, followed by solve. Domains and enumerate run inside solve, in
// that order: domains starts with solve and enumerate ends with it. Each
// nonzero phase is one complete ("X") event. A last counter ("C") event
// at the end of solve carries the end-of-run counters. A nil s writes an
// empty array.
func writeTrace(w io.Writer, s *rpq.Stats) error {
	var events []traceEvent
	if s != nil {
		p := s.Phases
		span := func(name string, start, d time.Duration) {
			if d > 0 {
				events = append(events, traceEvent{Name: name, Ph: "X", TS: micros(start), Dur: micros(d), PID: 1, TID: 1})
			}
		}
		solveStart := p.Compile.Wall
		solveEnd := solveStart + p.Solve.Wall
		span("compile", 0, p.Compile.Wall)
		span("solve", solveStart, p.Solve.Wall)
		span("domains", solveStart, p.Domains.Wall)
		span("enumerate", solveEnd-p.Enumerate.Wall, p.Enumerate.Wall)
		events = append(events, traceEvent{Name: "stats", Ph: "C", TS: micros(solveEnd), PID: 1, TID: 1,
			Args: map[string]int64{
				"worklist_inserts":   int64(s.WorklistInserts),
				"reach_size":         int64(s.ReachSize),
				"match_calls":        int64(s.MatchCalls),
				"match_cache_hits":   int64(s.MatchCacheHits),
				"match_cache_misses": int64(s.MatchCacheMisses),
				"merge_calls":        int64(s.MergeCalls),
				"substs":             int64(s.Substs),
				"enum_substs":        int64(s.EnumSubsts),
				"result_pairs":       int64(s.ResultPairs),
				"bytes":              s.Bytes,
				"peak_triples":       int64(s.PeakTriples),
			}})
	}
	buf := []byte("[")
	for i, e := range events {
		if i > 0 {
			buf = append(buf, ',')
		}
		line, err := json.Marshal(e)
		if err != nil {
			return err
		}
		buf = append(append(buf, '\n'), line...)
	}
	buf = append(buf, "\n]\n"...)
	_, err := w.Write(buf)
	return err
}

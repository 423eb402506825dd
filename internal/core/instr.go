package core

import (
	"time"

	"rpq/internal/obs"
)

// instr is the per-run instrumentation handle: a tracer (with its enabled
// flag cached so hot paths pay one boolean test) plus the gauges sampled by
// the solver loops. The zero value is fully disabled.
type instr struct {
	t      obs.Tracer
	on     bool
	gauges *obs.SolverGauges
}

func newInstr(opts Options) instr {
	in := instr{t: opts.Tracer, gauges: opts.Gauges}
	in.on = in.t != nil && in.t.Enabled()
	return in
}

// sampleMask throttles gauge sampling: one snapshot every sampleMask+1
// worklist pops. A power of two minus one, so the test is a single AND.
const sampleMask = 255

// growthHook returns a table-growth tracer callback emitting snapshots at
// power-of-two sizes (bounded event volume on any run), or nil when tracing
// is off. The caller installs it — possibly chained with the explain
// collector's curve sampler — via SetOnGrow.
func (in instr) growthHook() func(n int, bytes int64) {
	if !in.on {
		return nil
	}
	next := 64
	in.t.Emit(obs.Ev(obs.KTableGrowth, "substs", 0))
	return func(n int, bytes int64) {
		if n >= next {
			next *= 2
			in.t.Emit(obs.Ev(obs.KTableGrowth, "substs", int64(n)))
			in.t.Emit(obs.Ev(obs.KTableGrowth, "subst_bytes", bytes))
		}
	}
}

// flush pushes buffered trace events to disk; used on solver error paths so
// a failing run still yields a complete (parseable) trace.
func (in instr) flush() {
	if in.on {
		obs.Flush(in.t)
	}
}

// phaseBegin emits the begin event and returns the phase start time.
func (in instr) phaseBegin(name string) time.Time {
	if in.on {
		in.t.Emit(obs.Ev(obs.KPhaseBegin, name, 0))
	}
	return time.Now()
}

// phaseEnd emits the end event and returns the phase wall time.
func (in instr) phaseEnd(name string, t0 time.Time) time.Duration {
	d := time.Since(t0)
	if in.on {
		in.t.Emit(obs.Event{Time: time.Now(), Kind: obs.KPhaseEnd, Name: name, Dur: d})
	}
	return d
}

// span emits a retrospective completed phase (e.g. compilation that ran
// before the solver was invoked).
func (in instr) span(name string, d time.Duration) {
	if in.on {
		in.t.Emit(obs.SpanEv(obs.KSpan, name, d))
	}
}

// counter emits a monotonic total.
func (in instr) counter(name string, v int64) {
	if in.on {
		in.t.Emit(obs.Ev(obs.KCounter, name, v))
	}
}

// allocSnapshot reads cumulative heap allocation when tracing is on;
// otherwise reports 0, keeping the always-on path free of any sampling
// cost. The read goes through runtime/metrics (/gc/heap/allocs:bytes),
// which does not stop the world — unlike the runtime.ReadMemStats call it
// replaces — so tracing no longer perturbs the run it measures.
func (in instr) allocSnapshot() uint64 {
	if !in.on {
		return 0
	}
	return uint64(obs.HeapAllocBytes())
}

// finish stamps the end-of-run counters as events, in one place so every
// algorithm variant reports the same set.
func (in instr) finish(s *Stats) {
	if !in.on {
		return
	}
	in.counter("worklist_inserts", int64(s.WorklistInserts))
	in.counter("reach_size", int64(s.ReachSize))
	in.counter("match_calls", int64(s.MatchCalls))
	in.counter("match_cache_hits", int64(s.MatchCacheHits))
	in.counter("match_cache_misses", int64(s.MatchCacheMisses))
	in.counter("merge_calls", int64(s.MergeCalls))
	in.counter("substs", int64(s.Substs))
	in.counter("enum_substs", int64(s.EnumSubsts))
	in.counter("result_pairs", int64(s.ResultPairs))
	in.counter("bytes", s.Bytes)
	in.counter("peak_triples", int64(s.PeakTriples))
}

// highWater tracks a worklist high-water mark, emitting an event each time
// the mark doubles. nextHW is threaded by the caller (start it at 1).
func (in instr) highWater(depth int, nextHW *int) {
	if in.on && depth >= *nextHW {
		*nextHW = depth * 2
		in.t.Emit(obs.Ev(obs.KHighWater, "worklist", int64(depth)))
	}
}

// pairsBytes models the storage of n result pairs over pars parameters —
// slice header plus interned substitution data per pair — so every variant
// accounts results identically.
func pairsBytes(n, pars int) int64 {
	return int64(n) * int64(24+4*pars)
}

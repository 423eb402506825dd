package obs

import (
	"math"
	"runtime/metrics"
	"sync"
	"time"
)

// RuntimeSampler periodically reads a fixed set of runtime/metrics samples —
// live heap, cumulative allocation, goroutine count, GC cycles and pause
// quantiles, scheduler latency quantiles — into gauges of a Registry, so the
// runtime's behavior shows up in /metrics next to the query-engine
// metrics. All reads go through
// runtime/metrics: none of them stop the world, unlike the
// runtime.ReadMemStats sampling this replaces.
//
// A sampler is created stopped; Start launches the sampling goroutine and
// Stop terminates it and waits for it to exit (no goroutine outlives Stop).
// SampleOnce reads one sample synchronously and is what the loop calls.
type RuntimeSampler struct {
	interval time.Duration

	goroutines *Gauge
	heapLive   *Gauge
	heapAllocs *Gauge
	gcCycles   *Gauge
	gcPauseP50 *Gauge
	gcPauseP99 *Gauge
	schedP50   *Gauge
	schedP99   *Gauge

	// samples is the prepared runtime/metrics batch, read in one call.
	samples []metrics.Sample

	mu      sync.Mutex
	stop    chan struct{}
	done    chan struct{}
	started bool
}

// Offsets into RuntimeSampler.samples; the order matches newRuntimeSamples.
const (
	smGoroutines = iota
	smHeapLive
	smHeapAllocs
	smGCCycles
	smGCPauses
	smSchedLat
	smCount
)

func newRuntimeSamples() []metrics.Sample {
	names := [smCount]string{
		smGoroutines: "/sched/goroutines:goroutines",
		smHeapLive:   "/memory/classes/heap/objects:bytes",
		smHeapAllocs: heapAllocsMetric,
		smGCCycles:   "/gc/cycles/total:gc-cycles",
		smGCPauses:   "/sched/pauses/total/gc:seconds",
		smSchedLat:   "/sched/latencies:seconds",
	}
	s := make([]metrics.Sample, smCount)
	for i, n := range names {
		s[i].Name = n
	}
	// Older runtimes expose GC pauses under the pre-1.21 name; probe once
	// and fall back so the sampler works on any supported toolchain.
	metrics.Read(s)
	if s[smGCPauses].Value.Kind() == metrics.KindBad {
		s[smGCPauses].Name = "/gc/pauses:seconds"
	}
	return s
}

// NewRuntimeSampler registers the go_* runtime gauges in r (the default
// registry when nil) and returns a sampler reading them every interval
// (default 1s when interval <= 0) once started.
func NewRuntimeSampler(r *Registry, interval time.Duration) *RuntimeSampler {
	if r == nil {
		r = Default()
	}
	if interval <= 0 {
		interval = time.Second
	}
	return &RuntimeSampler{
		interval:   interval,
		goroutines: r.Gauge("go_goroutines", "live goroutines in the process"),
		heapLive:   r.Gauge("go_heap_live_bytes", "bytes of live heap objects (runtime/metrics /memory/classes/heap/objects)"),
		heapAllocs: r.Gauge("go_heap_allocs_bytes_total", "cumulative bytes allocated on the heap since process start"),
		gcCycles:   r.Gauge("go_gc_cycles_total", "completed GC cycles since process start"),
		gcPauseP50: r.Gauge("go_gc_pause_p50_us", "median stop-the-world GC pause since process start, microseconds"),
		gcPauseP99: r.Gauge("go_gc_pause_p99_us", "99th-percentile stop-the-world GC pause since process start, microseconds"),
		schedP50:   r.Gauge("go_sched_latency_p50_us", "median goroutine scheduling latency since process start, microseconds"),
		schedP99:   r.Gauge("go_sched_latency_p99_us", "99th-percentile goroutine scheduling latency since process start, microseconds"),
		samples:    newRuntimeSamples(),
	}
}

// Interval returns the sampling cadence.
func (s *RuntimeSampler) Interval() time.Duration { return s.interval }

// SampleOnce reads the runtime metrics once and stores them in the gauges.
// Safe to call concurrently with a running sampler (reads are serialized).
func (s *RuntimeSampler) SampleOnce() {
	s.mu.Lock()
	defer s.mu.Unlock()
	metrics.Read(s.samples)
	if v := s.samples[smGoroutines]; v.Value.Kind() == metrics.KindUint64 {
		s.goroutines.Set(int64(v.Value.Uint64()))
	}
	if v := s.samples[smHeapLive]; v.Value.Kind() == metrics.KindUint64 {
		s.heapLive.Set(int64(v.Value.Uint64()))
	}
	if v := s.samples[smHeapAllocs]; v.Value.Kind() == metrics.KindUint64 {
		s.heapAllocs.Set(int64(v.Value.Uint64()))
	}
	if v := s.samples[smGCCycles]; v.Value.Kind() == metrics.KindUint64 {
		s.gcCycles.Set(int64(v.Value.Uint64()))
	}
	if v := s.samples[smGCPauses]; v.Value.Kind() == metrics.KindFloat64Histogram {
		h := v.Value.Float64Histogram()
		s.gcPauseP50.Set(histQuantileUS(h, 0.50))
		s.gcPauseP99.Set(histQuantileUS(h, 0.99))
	}
	if v := s.samples[smSchedLat]; v.Value.Kind() == metrics.KindFloat64Histogram {
		h := v.Value.Float64Histogram()
		s.schedP50.Set(histQuantileUS(h, 0.50))
		s.schedP99.Set(histQuantileUS(h, 0.99))
	}
}

// histQuantileUS estimates the q-th quantile of a runtime/metrics
// seconds-valued histogram, in microseconds, from the bucket holding the
// sample at its nearest rank. The runtime's histograms are
// cumulative since process start; bucket boundaries may include ±Inf, which
// are clamped to the nearest finite neighbor.
func histQuantileUS(h *metrics.Float64Histogram, q float64) int64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(nearestRank(q, int64(total)))
	var seen uint64
	for i, c := range h.Counts {
		seen += c
		if seen >= rank {
			// Bucket i spans Buckets[i] .. Buckets[i+1]; report the upper
			// bound (conservative), substituting the finite neighbor for
			// an infinite edge.
			hi := h.Buckets[i+1]
			if math.IsInf(hi, +1) {
				hi = h.Buckets[i]
			}
			if math.IsInf(hi, -1) || math.IsNaN(hi) {
				return 0
			}
			return int64(hi * 1e6)
		}
	}
	return 0
}

// Start launches the sampling goroutine (idempotent). The first sample is
// taken immediately, then every interval.
func (s *RuntimeSampler) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	stop, done := s.stop, s.done
	s.mu.Unlock()

	s.SampleOnce()
	go func() {
		defer close(done)
		t := time.NewTicker(s.interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				s.SampleOnce()
			}
		}
	}()
}

// Stop terminates the sampling goroutine and waits for it to exit; it is
// idempotent and a no-op on a never-started sampler.
func (s *RuntimeSampler) Stop() {
	s.mu.Lock()
	if !s.started {
		s.mu.Unlock()
		return
	}
	s.started = false
	stop, done := s.stop, s.done
	s.mu.Unlock()
	close(stop)
	<-done
}

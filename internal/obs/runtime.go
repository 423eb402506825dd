package obs

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
)

// heapAllocsMetric is the runtime/metrics name of the cumulative count of
// heap-allocated bytes — the runtime.MemStats TotalAlloc figure, readable
// without a stop-the-world pause.
const heapAllocsMetric = "/gc/heap/allocs:bytes"

// HeapAllocBytes returns the cumulative bytes allocated on the heap since
// process start, read through runtime/metrics. Unlike
// runtime.ReadMemStats it does not stop the world, so it is cheap enough
// to call on every query. Deltas of this figure attribute allocation to a
// span of time; under concurrent queries the delta covers the whole
// process, so attribution is exact only for the allocations the span
// actually performed plus whatever ran alongside it. The runtime counts a
// small object only when the span holding it leaves its P's cache, so the
// figure lags: a short window can read no growth although it allocated
// (see flushedHeapAllocBytes).
func HeapAllocBytes() int64 {
	var s [1]metrics.Sample
	s[0].Name = heapAllocsMetric
	metrics.Read(s[:])
	if s[0].Value.Kind() == metrics.KindUint64 {
		return int64(s[0].Value.Uint64())
	}
	return 0
}

// flushedHeapAllocBytes is HeapAllocBytes after every P's span cache has
// been flushed, so it includes the small objects HeapAllocBytes has not
// counted yet. runtime.ReadMemStats does the flush and stops the world to
// do it (about 20µs on 2 vCPUs), so it is read only when HeapAllocBytes
// shows no growth.
func flushedHeapAllocBytes() int64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.TotalAlloc)
}

// Offsets into runtimeMetrics.
const (
	smGoroutines = iota
	smHeapLive
	smHeapAllocs
	smGCCycles
	smGCPauses
	smSchedLat
	smCount
)

// runtimeMetrics is the runtime/metrics batch behind the go_* gauges.
var runtimeMetrics = [smCount]string{
	smGoroutines: "/sched/goroutines:goroutines",
	smHeapLive:   "/memory/classes/heap/objects:bytes",
	smHeapAllocs: heapAllocsMetric,
	smGCCycles:   "/gc/cycles/total:gc-cycles",
	smGCPauses:   "/sched/pauses/total/gc:seconds",
	smSchedLat:   "/sched/latencies:seconds",
}

// WriteRuntimeGauges reads the runtime/metrics batch once and emits the go_*
// metrics in the Prometheus text format: live heap, cumulative allocation
// and GC cycles (counters), goroutine count, and GC-pause and
// scheduling-latency quantiles. The /metrics handler calls it per scrape, so the values are
// current without a background sampler; none of the reads stops the world.
// A metric the runtime does not support reads 0.
func WriteRuntimeGauges(w io.Writer) {
	s := make([]metrics.Sample, smCount)
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	count := func(i int) int64 {
		if s[i].Value.Kind() != metrics.KindUint64 {
			return 0
		}
		return int64(s[i].Value.Uint64())
	}
	quantile := func(i int, q float64) int64 {
		if s[i].Value.Kind() != metrics.KindFloat64Histogram {
			return 0
		}
		return histQuantileUS(s[i].Value.Float64Histogram(), q)
	}
	for _, g := range []struct {
		name, typ, help string
		value           int64
	}{
		{"go_gc_cycles_total", "counter", "completed GC cycles since process start", count(smGCCycles)},
		{"go_gc_pause_p50_us", "gauge", "median stop-the-world GC pause since process start, microseconds", quantile(smGCPauses, 0.50)},
		{"go_gc_pause_p99_us", "gauge", "99th-percentile stop-the-world GC pause since process start, microseconds", quantile(smGCPauses, 0.99)},
		{"go_goroutines", "gauge", "live goroutines in the process", count(smGoroutines)},
		{"go_heap_allocs_bytes_total", "counter", "cumulative bytes allocated on the heap since process start", count(smHeapAllocs)},
		{"go_heap_live_bytes", "gauge", "bytes of live heap objects (runtime/metrics /memory/classes/heap/objects)", count(smHeapLive)},
		{"go_sched_latency_p50_us", "gauge", "median goroutine scheduling latency since process start, microseconds", quantile(smSchedLat, 0.50)},
		{"go_sched_latency_p99_us", "gauge", "99th-percentile goroutine scheduling latency since process start, microseconds", quantile(smSchedLat, 0.99)},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", g.name, g.help, g.name, g.typ, g.name, g.value)
	}
}

// nearestRank is the 1-based nearest rank ceil(q·n) of the q-th quantile
// among n samples, clamped to [1, n]. The epsilon keeps a product that
// float math lands just above a whole number (0.95·100) on that number.
func nearestRank(q float64, n int64) int64 {
	return min(max(int64(math.Ceil(q*float64(n)-1e-9)), 1), n)
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

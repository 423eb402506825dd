package obs

import (
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

package obs

import (
	"math"
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"
	"time"
)

func TestRuntimeSamplerSampleOnce(t *testing.T) {
	r := NewRegistry()
	s := NewRuntimeSampler(r, time.Second)
	s.SampleOnce()
	snap := r.Snapshot()
	if snap["go_goroutines"] <= 0 {
		t.Fatalf("go_goroutines = %d, want > 0", snap["go_goroutines"])
	}
	if snap["go_heap_live_bytes"] <= 0 {
		t.Fatalf("go_heap_live_bytes = %d, want > 0", snap["go_heap_live_bytes"])
	}
	if snap["go_heap_allocs_bytes_total"] <= 0 {
		t.Fatalf("go_heap_allocs_bytes_total = %d, want > 0", snap["go_heap_allocs_bytes_total"])
	}
	// The allocs gauge tracks the same counter HeapAllocBytes reads.
	if got, direct := snap["go_heap_allocs_bytes_total"], HeapAllocBytes(); got > direct {
		t.Fatalf("sampled allocs %d ahead of direct read %d", got, direct)
	}
}

func TestRuntimeSamplerStartStopNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	s := NewRuntimeSampler(NewRegistry(), time.Millisecond)
	s.Start()
	s.Start() // idempotent
	time.Sleep(5 * time.Millisecond)
	s.Stop()
	s.Stop() // idempotent
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines: %d before, %d after Stop", before, n)
	}
}

func TestHeapAllocBytesMonotonic(t *testing.T) {
	a := HeapAllocBytes()
	if a <= 0 {
		t.Fatalf("HeapAllocBytes = %d, want > 0", a)
	}
	sink := make([][]byte, 64)
	for i := range sink {
		sink[i] = make([]byte, 4096)
	}
	b := HeapAllocBytes()
	if b < a {
		t.Fatalf("HeapAllocBytes went backwards: %d -> %d", a, b)
	}
	_ = sink
}

func TestProcessCPUTime(t *testing.T) {
	// On unix the reading must be positive and nondecreasing; the !unix
	// stub returns 0 and the attribution paths treat that as unknown.
	a := ProcessCPUTime()
	x := 0
	for i := 0; i < 1<<22; i++ {
		x += i
	}
	_ = x
	b := ProcessCPUTime()
	if b < a {
		t.Fatalf("ProcessCPUTime went backwards: %v -> %v", a, b)
	}
}

func TestHistQuantileUS(t *testing.T) {
	h := &metrics.Float64Histogram{
		Counts:  []uint64{10, 0, 90},
		Buckets: []float64{0, 1e-6, 1e-3, 1},
	}
	if got := histQuantileUS(h, 0.05); got != 1 {
		t.Fatalf("p5 = %d us, want 1", got)
	}
	if got := histQuantileUS(h, 0.99); got != 1e6 {
		t.Fatalf("p99 = %d us, want 1e6", got)
	}
	// Nearest rank is ceil(q·n): p99 of 9 fast samples and 1 slow one is
	// the slow one.
	small := &metrics.Float64Histogram{
		Counts:  []uint64{9, 1},
		Buckets: []float64{0, 1e-5, 1e-2},
	}
	if got := histQuantileUS(small, 0.99); got != 1e4 {
		t.Fatalf("small-count p99 = %d us, want 1e4", got)
	}
	// Infinite upper edge clamps to the finite lower bound.
	inf := &metrics.Float64Histogram{
		Counts:  []uint64{1},
		Buckets: []float64{1e-3, math.Inf(1)},
	}
	if got := histQuantileUS(inf, 0.99); got != 1000 {
		t.Fatalf("inf-edge p99 = %d us, want 1000", got)
	}
	if got := histQuantileUS(&metrics.Float64Histogram{Counts: []uint64{0}, Buckets: []float64{0, 1}}, 0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %d, want 0", got)
	}
}

func TestSamplerMetricNamesExist(t *testing.T) {
	// Every metric the sampler reads must resolve on this toolchain (the
	// GC-pause name has a documented fallback probed in newRuntimeSamples).
	s := newRuntimeSamples()
	metrics.Read(s)
	for _, sm := range s {
		if sm.Value.Kind() == metrics.KindBad {
			t.Errorf("metric %s unsupported by this runtime", sm.Name)
		}
	}
	if !strings.Contains(s[smGCPauses].Name, "pauses") {
		t.Fatalf("unexpected GC pause metric %s", s[smGCPauses].Name)
	}
}

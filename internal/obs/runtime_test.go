package obs

import (
	"fmt"
	"math"
	"runtime/metrics"
	"strings"
	"testing"
)

// TestRuntimeSamplerSampleOnce reads the go_* gauges the way a scrape does,
// from the exposition WriteRuntimeGauges renders at that moment.
func TestRuntimeSamplerSampleOnce(t *testing.T) {
	var b strings.Builder
	WriteRuntimeGauges(&b)
	got := map[string]int64{}
	for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		var name string
		var v int64
		if _, err := fmt.Sscanf(line, "%s %d", &name, &v); err != nil {
			t.Fatalf("bad sample line %q: %v", line, err)
		}
		got[name] = v
	}
	if len(got) != 8 {
		t.Fatalf("go_* gauges = %v, want 8", got)
	}
	for _, name := range []string{"go_goroutines", "go_heap_live_bytes", "go_heap_allocs_bytes_total"} {
		if got[name] <= 0 {
			t.Fatalf("%s = %d, want > 0", name, got[name])
		}
	}
	if n := strings.Count(b.String(), "# TYPE go_goroutines gauge\n"); n != 1 {
		t.Fatalf("go_goroutines TYPE lines = %d, want 1", n)
	}
	// The allocs gauge tracks the same counter HeapAllocBytes reads.
	if got, direct := got["go_heap_allocs_bytes_total"], HeapAllocBytes(); got > direct {
		t.Fatalf("scraped allocs %d ahead of direct read %d", got, direct)
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
	// Every metric behind the go_* gauges must resolve on this toolchain.
	var s [smCount]metrics.Sample
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s[:])
	for _, sm := range s {
		if sm.Value.Kind() == metrics.KindBad {
			t.Errorf("metric %s unsupported by this runtime", sm.Name)
		}
	}
}

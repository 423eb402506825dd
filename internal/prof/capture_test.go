package prof

import (
	"testing"
	"time"

	"rpq/internal/obs"
)

// Capture tests must not run in parallel with each other (or any other CPU
// profile): the runtime allows one CPU profile process-wide.

func newTestProfiler(window, interval time.Duration) *Profiler {
	return New(Options{
		Window: window, Interval: interval,
		Retain:   4,
		Registry: obs.NewRegistry(),
	})
}

func TestCaptureWindowEndToEnd(t *testing.T) {
	p := newTestProfiler(150*time.Millisecond, 200*time.Millisecond)
	p.Start()
	defer p.Stop()

	deadline := time.Now().Add(5 * time.Second)
	for p.store.Len() == 0 && time.Now().Before(deadline) {
		busyWork(10 * time.Millisecond)
	}
	p.Stop()

	w, ok := p.store.Latest()
	if !ok {
		t.Fatal("no window captured within 5s")
	}
	if w.Err == "" {
		if len(w.CPU) == 0 {
			t.Fatal("window has neither CPU bytes nor an error")
		}
		cp, err := ParseProfile(w.CPU)
		if err != nil {
			t.Fatalf("captured CPU profile does not decode: %v", err)
		}
		if w.CPUSamples != len(cp.Samples) {
			t.Fatalf("CPUSamples = %d, profile has %d samples", w.CPUSamples, len(cp.Samples))
		}
	}
	if len(w.Heap) == 0 {
		t.Fatal("window lacks a heap snapshot")
	}
	if _, err := ParseProfile(w.Heap); err != nil {
		t.Fatalf("captured heap profile does not decode: %v", err)
	}
	if w.End.Before(w.Start) {
		t.Fatalf("window times inverted: %+v", w)
	}
}

func TestPinActiveCutsInflightWindow(t *testing.T) {
	// A long window with a short interval keeps a capture almost always in
	// flight; PinActive must cut it, wait for the bytes, and pin it.
	p := newTestProfiler(10*time.Second, 10*time.Second)
	p.Start()
	defer p.Stop()

	// Wait until the capture is actually in flight.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		p.mu.Lock()
		inflight := p.cur != nil
		p.mu.Unlock()
		if inflight {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	t0 := time.Now()
	cpu, id, ok := p.PinActive("watchdog-test")
	if !ok {
		t.Fatal("PinActive failed with a capture in flight")
	}
	if d := time.Since(t0); d > 5*time.Second {
		t.Fatalf("PinActive took %v — did not cut the window", d)
	}
	w, found := p.store.Get(id)
	if !found || !w.Pinned || w.PinReason != "watchdog-test" {
		t.Fatalf("pinned window = %+v, %v", w, found)
	}
	if !w.Cut {
		t.Fatal("window not marked Cut after an early pin")
	}
	if len(cpu) != len(w.CPU) {
		t.Fatalf("PinActive returned %d bytes, store has %d", len(cpu), len(w.CPU))
	}
	if len(cpu) > 0 {
		if _, err := ParseProfile(cpu); err != nil {
			t.Fatalf("pinned profile does not decode: %v", err)
		}
	}
}

func TestPinActivePinsLatestWhenIdle(t *testing.T) {
	p := newTestProfiler(50*time.Millisecond, time.Hour)
	p.Start()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, ok := p.store.Latest(); ok {
			p.mu.Lock()
			idle := p.cur == nil
			p.mu.Unlock()
			if idle {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	defer p.Stop()

	_, id, ok := p.PinActive("slo-burn")
	if !ok {
		t.Fatal("PinActive failed with a completed window retained")
	}
	if w, _ := p.store.Get(id); !w.Pinned || w.PinReason != "slo-burn" {
		t.Fatalf("window = %+v", w)
	}
}

// TestPinActiveCountsWindowOnce pins the same idle window twice, as a burst
// of slow queries would: both calls return it, but the pinned gauge counts
// one window.
func TestPinActiveCountsWindowOnce(t *testing.T) {
	p := newTestProfiler(time.Second, time.Minute)
	want := p.store.Add(mkWindow(10))
	for i := 0; i < 2; i++ {
		if _, id, ok := p.PinActive("slow"); !ok || id != want {
			t.Fatalf("PinActive #%d = %d, %v; want window %d", i+1, id, ok, want)
		}
	}
	if got := p.gPinned.Value(); got != 1 {
		t.Fatalf("rpq_prof_pinned_total = %d after two pins of one window, want 1", got)
	}
}

// TestPinIfBurningPinsOncePerReport feeds one report whose objective burns
// on both of its windows: that is one breach, so one pin.
func TestPinIfBurningPinsOncePerReport(t *testing.T) {
	p := newTestProfiler(time.Second, time.Minute)
	p.store.Add(mkWindow(10))
	rep := obs.SLOReport{SLOs: []obs.SLOStatus{{
		Route: "query",
		Windows: []obs.SLOWindowStatus{
			{Window: "5m", BurnRate: 3},
			{Window: "1h", BurnRate: 1.5},
		},
	}}}
	if !p.pinIfBurning(rep) {
		t.Fatal("pinIfBurning ignored a burning report")
	}
	if got := p.gPinned.Value(); got != 1 {
		t.Fatalf("rpq_prof_pinned_total = %d, want 1", got)
	}
	calm := obs.SLOReport{SLOs: []obs.SLOStatus{{
		Windows: []obs.SLOWindowStatus{{Window: "5m", BurnRate: 0.5}},
	}}}
	if p.pinIfBurning(calm) {
		t.Fatal("pinIfBurning pinned below the burn threshold")
	}
}

func TestPinActiveEmptyStore(t *testing.T) {
	p := newTestProfiler(time.Second, time.Second)
	if _, _, ok := p.PinActive("x"); ok {
		t.Fatal("PinActive reported success with nothing captured")
	}
}

func TestProfilerStopIdempotent(t *testing.T) {
	p := newTestProfiler(20*time.Millisecond, 30*time.Millisecond)
	p.Start()
	p.Start() // idempotent
	time.Sleep(50 * time.Millisecond)
	p.Stop()
	p.Stop() // idempotent
	n := p.store.Len()
	time.Sleep(80 * time.Millisecond)
	if p.store.Len() != n {
		t.Fatal("capture loop survived Stop")
	}
}

// busyWork burns CPU so capture windows have something to sample.
func busyWork(d time.Duration) {
	end := time.Now().Add(d)
	x := 1
	for time.Now().Before(end) {
		x = x*31 + 7
	}
	_ = x
}

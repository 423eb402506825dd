package prof

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"sync"
	"time"

	"rpq/internal/obs"
)

// Default duty cycle: a 10s CPU window every 60s keeps the steady-state
// overhead under the 2% budget (the CPU profiler's cost while sampling is a
// few percent, amortized by the 1:6 duty cycle; BenchmarkExist/prof-on pins
// it).
const (
	DefaultWindow   = 10 * time.Second
	DefaultInterval = 60 * time.Second
	DefaultRetain   = 32
)

// maxPinned bounds the anomaly-pinned windows kept beside the retained ones.
const maxPinned = 8

// labelKeys are the pprof labels the query layer stamps whose values the
// window listing reports. Labels ride on CPU samples only: the runtime does
// not attach pprof labels to heap samples.
var labelKeys = []string{"rpq_kind", "variant", "table", "rpq_trace_id"}

// Options configures a Profiler. The zero value captures 10s windows every
// 60s, retaining 32 windows plus up to 8 pinned ones.
type Options struct {
	// Window is the CPU-capture duration per cycle (0 = 10s).
	Window time.Duration
	// Interval is the cycle period — one window starts every Interval
	// (0 = 60s; values below Window are clamped to Window).
	Interval time.Duration
	// Retain bounds the unpinned windows kept in memory (0 = 32).
	Retain int
	// Registry receives the profiler's own gauges (rpq_prof_*); nil means the
	// default registry.
	Registry *obs.Registry
}

// Profiler is the always-on continuous profiler: Start launches the capture
// loop, Store exposes the retained windows, Handler lists them as rpq-prof/1
// JSON and serves their raw bytes, and PinActive pins the window covering
// "now" (cutting the in-flight capture short) for watchdog bundles.
type Profiler struct {
	window   time.Duration
	interval time.Duration
	store    *Store

	gWindows *obs.Gauge // rpq_prof_windows_total
	gErrors  *obs.Gauge // rpq_prof_errors_total
	gPinned  *obs.Gauge // rpq_prof_pinned_total
	gBytes   *obs.Gauge // rpq_prof_retained_bytes

	mu      sync.Mutex
	cur     *capture // non-nil while a CPU window is being captured
	started bool
	stop    chan struct{}
	done    chan struct{}
}

// capture tracks one in-flight CPU window so PinActive can cut it short and
// wait for its bytes.
type capture struct {
	start   time.Time
	cutOnce sync.Once
	cut     chan struct{} // closed to end the window early
	done    chan struct{} // closed once the window is in the store
	id      int64         // valid after done
}

// New returns a stopped profiler; call Start to begin capturing.
func New(o Options) *Profiler {
	if o.Window <= 0 {
		o.Window = DefaultWindow
	}
	if o.Interval <= 0 {
		o.Interval = DefaultInterval
	}
	if o.Interval < o.Window {
		o.Interval = o.Window
	}
	if o.Retain <= 0 {
		o.Retain = DefaultRetain
	}
	reg := o.Registry
	if reg == nil {
		reg = obs.Default()
	}
	return &Profiler{
		window:   o.Window,
		interval: o.Interval,
		store:    NewStore(o.Retain, maxPinned),
		gWindows: reg.Gauge("rpq_prof_windows_total", "profile windows captured since process start"),
		gErrors:  reg.Gauge("rpq_prof_errors_total", "profile capture failures (e.g. a competing CPU profile)"),
		gPinned:  reg.Gauge("rpq_prof_pinned_total", "profile windows pinned by anomalies since process start"),
		gBytes:   reg.Gauge("rpq_prof_retained_bytes", "bytes of profile data retained in the ring store"),
	}
}

// Store exposes the retained windows.
func (p *Profiler) Store() *Store { return p.store }

// Window returns the configured CPU-capture duration.
func (p *Profiler) Window() time.Duration { return p.window }

// Interval returns the configured cycle period.
func (p *Profiler) Interval() time.Duration { return p.interval }

// Start launches the capture loop (idempotent): one window immediately, then
// one per interval.
func (p *Profiler) Start() {
	p.mu.Lock()
	if p.started {
		p.mu.Unlock()
		return
	}
	p.started = true
	p.stop = make(chan struct{})
	p.done = make(chan struct{})
	stop, done := p.stop, p.done
	p.mu.Unlock()

	go func() {
		defer close(done)
		for {
			p.captureWindow(stop)
			idle := p.interval - p.window
			if idle < 0 {
				idle = 0
			}
			select {
			case <-stop:
				return
			case <-time.After(idle):
			}
		}
	}()
}

// Stop terminates the capture loop (ending an in-flight window) and waits for
// it to exit. The retained windows stay readable.
func (p *Profiler) Stop() {
	p.mu.Lock()
	if !p.started {
		p.mu.Unlock()
		return
	}
	p.started = false
	stop, done := p.stop, p.done
	p.mu.Unlock()
	close(stop)
	<-done
}

// captureWindow records one CPU window (ended early by stop or a pin) plus
// the closing heap snapshot, and stores it.
func (p *Profiler) captureWindow(stop chan struct{}) {
	c := &capture{start: time.Now(), cut: make(chan struct{}), done: make(chan struct{})}
	// Publish before capturing so PinActive can cut this window; c.id is
	// only read after c.done closes, which happens after the store insert.
	p.mu.Lock()
	p.cur = c
	p.mu.Unlock()
	var cpuBuf bytes.Buffer
	err := pprof.StartCPUProfile(&cpuBuf)
	if err == nil {
		select {
		case <-stop:
		case <-c.cut:
		case <-time.After(p.window):
		}
		pprof.StopCPUProfile()
	}

	w := &Window{Start: c.start, End: time.Now()}
	select {
	case <-c.cut:
		w.Cut = true
	default:
	}
	if err != nil {
		// Another CPU profile is running (e.g. a /debug/pprof/profile
		// download). Record the miss so the duty cycle stays visible.
		w.Err = fmt.Sprintf("cpu capture: %v", err)
		p.gErrors.Add(1)
	} else {
		w.CPU = cpuBuf.Bytes()
		w.indexCPU()
	}
	var heapBuf bytes.Buffer
	if hp := pprof.Lookup("heap"); hp != nil {
		if herr := hp.WriteTo(&heapBuf, 0); herr == nil {
			w.Heap = heapBuf.Bytes()
		}
	}

	c.id = p.store.Add(w)
	p.gWindows.Add(1)
	p.accountBytes()
	p.mu.Lock()
	p.cur = nil
	p.mu.Unlock()
	close(c.done)
}

// indexCPU decodes the window's CPU profile once, at capture, recording its
// sample count and label values for the window listing.
func (w *Window) indexCPU() {
	prof, err := ParseProfile(w.CPU)
	if err != nil {
		return
	}
	w.CPUSamples = len(prof.Samples)
	for _, key := range labelKeys {
		if vs := LabelValues(prof, key); len(vs) > 0 {
			if w.Labels == nil {
				w.Labels = map[string][]string{}
			}
			w.Labels[key] = vs
		}
	}
}

// accountBytes refreshes the retained-bytes gauge.
func (p *Profiler) accountBytes() {
	var total int64
	for _, w := range p.store.List() {
		total += int64(len(w.CPU) + len(w.Heap))
	}
	p.gBytes.Set(total)
}

// PinActive pins the profile window covering "now": a capture in flight is
// cut short so its samples — including the anomaly that triggered the pin —
// are flushed and retained; with no capture in flight the most recent window
// is pinned instead. It returns the pinned window's CPU profile (gzipped
// pprof) and id; ok is false when nothing has been captured yet. Only the
// first pin of a window counts toward rpq_prof_pinned_total, so a burst of
// anomalies inside one window counts once. It implements obs.ProfilePinner,
// so a Watchdog links the window into its diagnostic bundles.
func (p *Profiler) PinActive(reason string) (cpu []byte, id int64, ok bool) {
	p.mu.Lock()
	c := p.cur
	p.mu.Unlock()
	if c != nil {
		c.cutOnce.Do(func() { close(c.cut) })
		select {
		case <-c.done:
		case <-time.After(5 * time.Second):
			return nil, 0, false
		}
		id = c.id
	} else if w, found := p.store.Latest(); found {
		id = w.ID
	} else {
		return nil, 0, false
	}
	if p.store.Pin(id, reason) {
		p.gPinned.Add(1)
	}
	w, found := p.store.Get(id)
	if !found {
		return nil, 0, false
	}
	return w.CPU, id, true
}

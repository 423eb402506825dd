package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// TSDBSchema identifies the JSON export format of the time-series store;
// bump it when the document shape changes so consumers fail loudly instead
// of misreading.
const TSDBSchema = "rpq-tsdb/1"

// TimeSeriesOptions configures a TimeSeries store.
type TimeSeriesOptions struct {
	// Interval is the snapshot cadence; <= 0 defaults to 1s.
	Interval time.Duration
	// Retention is the window of history to keep; <= 0 defaults to 10
	// minutes. The store's capacity is Retention/Interval points and its
	// memory is bounded by that capacity regardless of how long it runs.
	Retention time.Duration
}

// tsPoint is one retained snapshot: a timestamp plus every metric value
// observed at that instant.
type tsPoint struct {
	unixMS int64
	vals   map[string]int64
}

// TimeSeries is a bounded in-process time-series store: a ring of periodic
// snapshots of every gauge and histogram registered in a Registry (plus any
// extra sources), retaining a configurable window. It backs the
// /debug/rpq/ts endpoint (rpq-tsdb/1 JSON) and the live dashboard.
//
// A store is created stopped; Start launches the snapshot goroutine and
// Stop terminates it and waits for it to exit. Record takes one snapshot
// synchronously (the loop calls it; tests can too).
type TimeSeries struct {
	reg      *Registry
	interval time.Duration
	capacity int

	mu      sync.Mutex
	points  []tsPoint // ring, capacity entries once full
	next    int       // ring write cursor, valid once len(points) == capacity
	sources []func(into map[string]int64)
	stop    chan struct{}
	done    chan struct{}
	started bool
}

// NewTimeSeries returns a store snapshotting reg (the default registry when
// nil) per o.
func NewTimeSeries(reg *Registry, o TimeSeriesOptions) *TimeSeries {
	if reg == nil {
		reg = Default()
	}
	if o.Interval <= 0 {
		o.Interval = time.Second
	}
	if o.Retention <= 0 {
		o.Retention = 10 * time.Minute
	}
	capacity := int(o.Retention / o.Interval)
	if capacity < 2 {
		capacity = 2
	}
	return &TimeSeries{reg: reg, interval: o.Interval, capacity: capacity}
}

// AddSource registers an extra metric source merged into every snapshot
// after the registry's values — e.g. the in-flight query count. Call before
// Start; fn must be safe to call from the snapshot goroutine.
func (t *TimeSeries) AddSource(fn func(into map[string]int64)) {
	t.mu.Lock()
	t.sources = append(t.sources, fn)
	t.mu.Unlock()
}

// WatchInflight adds i's live query count to every snapshot as the
// rpq_inflight_queries series.
func (t *TimeSeries) WatchInflight(i *Inflight) {
	t.AddSource(func(into map[string]int64) {
		into["rpq_inflight_queries"] = int64(i.Len())
	})
}

// Interval returns the snapshot cadence.
func (t *TimeSeries) Interval() time.Duration { return t.interval }

// Cap returns the store's point capacity (retention / interval).
func (t *TimeSeries) Cap() int { return t.capacity }

// Len returns the number of retained points.
func (t *TimeSeries) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.points)
}

// Record takes one snapshot now. Memory stays bounded: once the ring is
// full, the oldest point is overwritten.
func (t *TimeSeries) Record() {
	t.recordAt(time.Now().UnixMilli())
}

// recordAt is Record with an explicit timestamp, so tests can lay down a
// synthetic window and pin the arithmetic of window queries.
func (t *TimeSeries) recordAt(unixMS int64) {
	vals := t.reg.Snapshot()
	t.mu.Lock()
	for _, src := range t.sources {
		src(vals)
	}
	p := tsPoint{unixMS: unixMS, vals: vals}
	if len(t.points) < t.capacity {
		t.points = append(t.points, p)
	} else {
		t.points[t.next] = p
		t.next = (t.next + 1) % t.capacity
	}
	t.mu.Unlock()
}

// SeriesDelta reports how much the series named name increased over the
// trailing window: the difference between its newest retained value and its
// value at the oldest retained point no older than the window, along with
// the actual span those endpoints cover (which can be shorter than the
// window when history is thin — burn-rate consumers report the real span so
// a freshly started process does not fake a full window of data). A point
// inside the window from before the series first appeared counts as zero:
// counters register on their first increment, so absence means the count
// was still 0, and without that baseline every increment that lands between
// two snapshots right after startup would be invisible to the delta. ok is
// false when the window holds fewer than two points up to the newest one
// carrying the series.
func (t *TimeSeries) SeriesDelta(name string, window time.Duration) (delta int64, span time.Duration, ok bool) {
	pts := t.ordered()
	// Walk back to the newest point carrying the series.
	hi := len(pts) - 1
	for hi >= 0 {
		if _, present := pts[hi].vals[name]; present {
			break
		}
		hi--
	}
	if hi < 1 {
		return 0, 0, false
	}
	cutoff := pts[hi].unixMS - window.Milliseconds()
	lo := -1
	for i := 0; i < hi; i++ {
		if pts[i].unixMS >= cutoff {
			lo = i
			break
		}
	}
	if lo < 0 {
		return 0, 0, false
	}
	base := pts[lo].vals[name] // zero when the series had not appeared yet
	delta = pts[hi].vals[name] - base
	span = time.Duration(pts[hi].unixMS-pts[lo].unixMS) * time.Millisecond
	if span <= 0 {
		return 0, 0, false
	}
	return delta, span, true
}

// ordered returns the retained points oldest-first.
func (t *TimeSeries) ordered() []tsPoint {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]tsPoint, 0, len(t.points))
	if len(t.points) < t.capacity {
		return append(out, t.points...)
	}
	out = append(out, t.points[t.next:]...)
	return append(out, t.points[:t.next]...)
}

// tsdbDoc is the rpq-tsdb/1 JSON document: aligned arrays, one entry per
// retained point, with null for a series that did not exist at a point
// (a series registered mid-window).
type tsdbDoc struct {
	Schema          string              `json:"schema"`
	IntervalMS      int64               `json:"interval_ms"`
	RetentionPoints int                 `json:"retention_points"`
	Points          int                 `json:"points"`
	TimestampsMS    []int64             `json:"timestamps_ms"`
	Series          map[string][]*int64 `json:"series"`
}

// WriteJSON emits the retained window as an rpq-tsdb/1 document.
func (t *TimeSeries) WriteJSON(w io.Writer) error {
	pts := t.ordered()
	doc := tsdbDoc{
		Schema:          TSDBSchema,
		IntervalMS:      t.interval.Milliseconds(),
		RetentionPoints: t.capacity,
		Points:          len(pts),
		TimestampsMS:    make([]int64, len(pts)),
		Series:          map[string][]*int64{},
	}
	names := map[string]bool{}
	for i, p := range pts {
		doc.TimestampsMS[i] = p.unixMS
		for name := range p.vals {
			names[name] = true
		}
	}
	ordered := make([]string, 0, len(names))
	for name := range names {
		ordered = append(ordered, name)
	}
	sort.Strings(ordered)
	for _, name := range ordered {
		col := make([]*int64, len(pts))
		for i, p := range pts {
			if v, ok := p.vals[name]; ok {
				v := v
				col[i] = &v
			}
		}
		doc.Series[name] = col
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// Start launches the snapshot goroutine (idempotent): one snapshot
// immediately, then one per interval.
func (t *TimeSeries) Start() {
	t.mu.Lock()
	if t.started {
		t.mu.Unlock()
		return
	}
	t.started = true
	t.stop = make(chan struct{})
	t.done = make(chan struct{})
	stop, done := t.stop, t.done
	t.mu.Unlock()

	t.Record()
	go func() {
		defer close(done)
		tick := time.NewTicker(t.interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				t.Record()
			}
		}
	}()
}

// Stop terminates the snapshot goroutine and waits for it to exit;
// idempotent, no-op when never started. The retained window stays readable.
func (t *TimeSeries) Stop() {
	t.mu.Lock()
	if !t.started {
		t.mu.Unlock()
		return
	}
	t.started = false
	stop, done := t.stop, t.done
	t.mu.Unlock()
	close(stop)
	<-done
}

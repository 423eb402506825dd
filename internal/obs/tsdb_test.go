package obs

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"
	"time"
)

func decodeTSDB(t *testing.T, ts *TimeSeries) tsdbDoc {
	t.Helper()
	var buf bytes.Buffer
	if err := ts.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var doc tsdbDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return doc
}

func TestTimeSeriesBoundedByRetention(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("x", "")
	ts := NewTimeSeries(r, TimeSeriesOptions{Interval: time.Second, Retention: 5 * time.Second})
	if ts.Cap() != 5 {
		t.Fatalf("Cap = %d, want 5", ts.Cap())
	}
	// Record far more points than the capacity: the ring must stay pinned
	// at Cap and retain the newest window in order.
	for i := 0; i < 37; i++ {
		g.Set(int64(i))
		ts.Record()
	}
	if ts.Len() != 5 {
		t.Fatalf("Len = %d after 37 records, want 5", ts.Len())
	}
	doc := decodeTSDB(t, ts)
	if doc.Schema != TSDBSchema {
		t.Fatalf("schema = %q, want %q", doc.Schema, TSDBSchema)
	}
	if doc.Points != 5 || len(doc.TimestampsMS) != 5 {
		t.Fatalf("points = %d, timestamps = %d, want 5", doc.Points, len(doc.TimestampsMS))
	}
	col := doc.Series["x"]
	if len(col) != 5 {
		t.Fatalf("series x has %d entries, want 5", len(col))
	}
	for i, v := range col {
		want := int64(32 + i) // the last five of 0..36
		if v == nil || *v != want {
			t.Fatalf("series x[%d] = %v, want %d", i, v, want)
		}
	}
}

func TestTimeSeriesNullsForMissingSeries(t *testing.T) {
	r := NewRegistry()
	a := r.Gauge("a", "")
	ts := NewTimeSeries(r, TimeSeriesOptions{Interval: time.Second, Retention: 10 * time.Second})
	a.Set(1)
	ts.Record()
	// A gauge registered mid-window (e.g. a per-worker gauge) must appear
	// as null at the earlier points, not zero.
	r.Gauge("b", "").Set(7)
	ts.Record()
	doc := decodeTSDB(t, ts)
	b := doc.Series["b"]
	if len(b) != 2 || b[0] != nil || b[1] == nil || *b[1] != 7 {
		t.Fatalf("series b = %v, want [null, 7]", b)
	}
}

func TestTimeSeriesSources(t *testing.T) {
	r := NewRegistry()
	ts := NewTimeSeries(r, TimeSeriesOptions{})
	inf := NewInflight()
	ts.WatchInflight(inf)
	q := inf.Begin("exist", "p", "basic", TraceContext{})
	ts.Record()
	q.Done()
	ts.Record()
	doc := decodeTSDB(t, ts)
	col := doc.Series["rpq_inflight_queries"]
	if len(col) != 2 || col[0] == nil || *col[0] != 1 || col[1] == nil || *col[1] != 0 {
		t.Fatalf("rpq_inflight_queries = %v, want [1, 0]", col)
	}
}

func TestTimeSeriesStartStopNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	ts := NewTimeSeries(NewRegistry(), TimeSeriesOptions{Interval: time.Millisecond, Retention: 50 * time.Millisecond})
	ts.Start()
	ts.Start() // idempotent
	time.Sleep(10 * time.Millisecond)
	if ts.Len() == 0 {
		t.Fatal("no points recorded by running store")
	}
	ts.Stop()
	ts.Stop() // idempotent
	// Stop waits for the goroutine, so the count must settle back.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines: %d before, %d after Stop", before, n)
	}
	if ts.Len() == 0 {
		t.Fatal("retained window lost after Stop")
	}
}

func TestTimeSeriesDefaultCapacity(t *testing.T) {
	ts := NewTimeSeries(NewRegistry(), TimeSeriesOptions{})
	if ts.Interval() != time.Second {
		t.Fatalf("default interval = %v", ts.Interval())
	}
	if ts.Cap() != 600 {
		t.Fatalf("default capacity = %d, want 600 (10m / 1s)", ts.Cap())
	}
	// Degenerate retention still yields a usable ring.
	ts = NewTimeSeries(NewRegistry(), TimeSeriesOptions{Interval: time.Hour, Retention: time.Second})
	if ts.Cap() != 2 {
		t.Fatalf("minimum capacity = %d, want 2", ts.Cap())
	}
}

// TestTimeSeriesMidWindowRegistrationAcrossWrap pins column alignment for a
// gauge first registered mid-retention-window: its column must be
// null-padded at the points before it existed — never shifted — and the
// padding must stay correct as the ring wraps and the pre-registration
// points age out of the window.
func TestTimeSeriesMidWindowRegistrationAcrossWrap(t *testing.T) {
	r := NewRegistry()
	old := r.Gauge("old", "")
	ts := NewTimeSeries(r, TimeSeriesOptions{Interval: time.Second, Retention: 4 * time.Second})

	// Two points before the late gauge exists.
	for i := 0; i < 2; i++ {
		old.Set(int64(i))
		ts.Record()
	}
	late := r.Gauge("late", "")
	late.Set(100)
	old.Set(2)
	ts.Record()

	doc := decodeTSDB(t, ts)
	lateCol := doc.Series["late"]
	if len(lateCol) != 3 || lateCol[0] != nil || lateCol[1] != nil || lateCol[2] == nil || *lateCol[2] != 100 {
		t.Fatalf("late = %v, want [null, null, 100]", lateCol)
	}
	oldCol := doc.Series["old"]
	if len(oldCol) != 3 || oldCol[0] == nil || *oldCol[0] != 0 || oldCol[2] == nil || *oldCol[2] != 2 {
		t.Fatalf("old = %v, want [0, 1, 2] aligned, not shifted by late's padding", oldCol)
	}

	// Wrap the ring: after two more points the capacity-4 window holds one
	// pre-registration point (still null for late) and three live ones.
	for i := 3; i <= 4; i++ {
		old.Set(int64(i))
		late.Set(int64(100 + i))
		ts.Record()
	}
	doc = decodeTSDB(t, ts)
	if doc.Points != 4 {
		t.Fatalf("points = %d after wrap, want 4", doc.Points)
	}
	for name, col := range doc.Series {
		if len(col) != 4 {
			t.Fatalf("series %s has %d entries, want 4 (misaligned columns)", name, len(col))
		}
	}
	lateCol = doc.Series["late"]
	if lateCol[0] != nil {
		t.Fatalf("late[0] = %v, want null (point predates registration)", *lateCol[0])
	}
	if lateCol[1] == nil || *lateCol[1] != 100 || lateCol[3] == nil || *lateCol[3] != 104 {
		t.Fatalf("late = %v, want [null, 100, 103, 104]", lateCol)
	}
	oldCol = doc.Series["old"]
	for i, want := range []int64{1, 2, 3, 4} {
		if oldCol[i] == nil || *oldCol[i] != want {
			t.Fatalf("old = %v, want [1, 2, 3, 4]", oldCol)
		}
	}

	// One more wrap cycle pushes every pre-registration point out: late's
	// column must now be fully populated with no stale nulls.
	for i := 5; i <= 7; i++ {
		old.Set(int64(i))
		late.Set(int64(100 + i))
		ts.Record()
	}
	doc = decodeTSDB(t, ts)
	for i, v := range doc.Series["late"] {
		if v == nil || *v != int64(104+i) {
			t.Fatalf("late after full wrap = %v, want [104..107]", doc.Series["late"])
		}
	}
}

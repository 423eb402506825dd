package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the number of log2-spaced latency buckets: bucket i holds
// observations in [2^i, 2^(i+1)) microseconds, so 40 buckets cover sub-µs
// through ~12.7 days — far beyond any plausible query latency.
const histBuckets = 40

// Histogram is a lock-free latency histogram with log2-spaced microsecond
// buckets. Observe is safe to call from solver goroutines while the HTTP
// exposition computes quantiles; quantile estimates are exact to within a
// factor of 2 (the bucket midpoint is reported).
type Histogram struct {
	counts [histBuckets]atomic.Int64
	count  atomic.Int64
	sumUS  atomic.Int64
	// exemplars holds, per bucket, the most recent traced observation — the
	// jump from a latency bucket to the trace (and profile slice) that landed
	// in it. Written only by ObserveTrace calls that carry a trace ID.
	exemplars [histBuckets]atomic.Pointer[Exemplar]
}

// Exemplar links one histogram bucket to the most recent traced observation
// that landed in it, OpenMetrics-style: the trace ID, the observed value, and
// when it was recorded.
type Exemplar struct {
	TraceID string        `json:"trace_id"`
	Value   time.Duration `json:"-"`
	ValueMS float64       `json:"value_ms"`
	Time    time.Time     `json:"time"`
}

// histBucket maps a duration to its bucket index.
func histBucket(d time.Duration) int {
	us := uint64(d.Microseconds())
	if us == 0 {
		return 0
	}
	b := bits.Len64(us) - 1
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	h.ObserveTrace(d, "")
}

// ObserveTrace records one latency sample and, when traceID is non-empty,
// replaces the bucket's exemplar so the exposition and dash can link the
// bucket to the most recent trace that landed in it.
func (h *Histogram) ObserveTrace(d time.Duration, traceID string) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	b := histBucket(d)
	h.counts[b].Add(1)
	h.count.Add(1)
	h.sumUS.Add(d.Microseconds())
	if traceID != "" {
		h.exemplars[b].Store(&Exemplar{
			TraceID: traceID,
			Value:   d,
			ValueMS: float64(d.Microseconds()) / 1000,
			Time:    time.Now().UTC(),
		})
	}
}

// BucketExemplar returns the exemplar of bucket i, nil when the bucket has
// seen no traced observation.
func (h *Histogram) BucketExemplar(i int) *Exemplar {
	if h == nil || i < 0 || i >= histBuckets {
		return nil
	}
	return h.exemplars[i].Load()
}

// Exemplars returns the buckets that carry an exemplar, hottest (highest
// bucket index, i.e. slowest) first — the "top buckets with recent trace IDs"
// view for the dash and /debug surfaces.
func (h *Histogram) Exemplars() []Exemplar {
	if h == nil {
		return nil
	}
	var out []Exemplar
	for i := histBuckets - 1; i >= 0; i-- {
		if e := h.exemplars[i].Load(); e != nil {
			out = append(out, *e)
		}
	}
	return out
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of all observed samples.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sumUS.Load()) * time.Microsecond
}

// nearestRank is the 1-based nearest rank ceil(q·n) of the q-th quantile
// among n samples, clamped to [1, n]. The epsilon keeps a product that
// float math lands just above a whole number (0.95·100) on that number.
func nearestRank(q float64, n int64) int64 {
	return min(max(int64(math.Ceil(q*float64(n)-1e-9)), 1), n)
}

// Quantile estimates the q-th quantile (0 < q ≤ 1) as the midpoint of the
// bucket holding the sample at its nearest rank: 1.5·2^i µs for bucket i
// (1 µs for bucket 0). Returns 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := nearestRank(q, total)
	var seen int64
	for i := 0; i < histBuckets; i++ {
		seen += h.counts[i].Load()
		if seen >= rank {
			if i == 0 {
				return time.Microsecond
			}
			mid := int64(3) << (i - 1) // 1.5 * 2^i
			return time.Duration(mid) * time.Microsecond
		}
	}
	return time.Duration(int64(3)<<(histBuckets-2)) * time.Microsecond
}

// snapshot copies the bucket counts, total, and sum for exposition.
func (h *Histogram) snapshot() (counts [histBuckets]int64, count, sumUS int64) {
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return counts, h.count.Load(), h.sumUS.Load()
}

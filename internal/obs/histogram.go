package obs

import (
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
// exposition reads the buckets; /metrics renders it as a Prometheus
// histogram, and quantiles are the scraper's to compute (histogram_quantile).
type Histogram struct {
	counts [histBuckets]atomic.Int64
	sumUS  atomic.Int64
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
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	h.counts[histBucket(d)].Add(1)
	h.sumUS.Add(d.Microseconds())
}

// snapshot copies the bucket counts and sum for exposition. The count is
// the sum of the copied buckets, so the +Inf bucket always equals _count
// and never falls below a finite bucket, even while Observe runs.
func (h *Histogram) snapshot() (counts [histBuckets]int64, count, sumUS int64) {
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		count += counts[i]
	}
	return counts, count, h.sumUS.Load()
}

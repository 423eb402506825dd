package service

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"rpq/internal/obs"
)

// Admission-control outcomes surfaced to the HTTP layer.
var (
	// errOverloaded means the wait queue was full on arrival — reject now.
	errOverloaded = errors.New("service: solve queue full")
	// errQueueWait means the request queued but no slot freed in time.
	errQueueWait = errors.New("service: timed out waiting for a solve slot")
)

// admission is a bounded semaphore on concurrent solves with a bounded,
// time-limited wait queue in front of it. Fast path: a free slot admits
// immediately. Slow path: up to maxQueue requests wait up to wait for a
// slot; anything beyond that is rejected immediately so overload turns into
// fast 429s instead of a goroutine pile-up.
type admission struct {
	slots    chan struct{}
	maxQueue int64
	wait     time.Duration

	queued   atomic.Int64
	active   atomic.Int64
	admitted atomic.Int64
	rejected atomic.Int64
	timedOut atomic.Int64

	gActive   *obs.Gauge
	gQueued   *obs.Gauge
	gAdmitted *obs.Gauge
	gRejected *obs.Gauge
	gTimeout  *obs.Gauge
}

func newAdmission(maxConcurrent, maxQueue int, wait time.Duration, r *obs.Registry) *admission {
	return &admission{
		slots:     make(chan struct{}, maxConcurrent),
		maxQueue:  int64(maxQueue),
		wait:      wait,
		gActive:   r.Gauge("rpq_svc_active_solves", "queries holding a solve slot right now"),
		gQueued:   r.Gauge("rpq_svc_queued", "requests waiting for a solve slot right now"),
		gAdmitted: r.Counter("rpq_svc_admitted_total", "requests granted a solve slot since process start"),
		gRejected: r.Counter("rpq_svc_rejected_total", "requests rejected with 429 (queue full) since process start"),
		gTimeout:  r.Counter("rpq_svc_queue_timeout_total", "requests rejected with 429 after waiting the full queue-wait"),
	}
}

// acquire obtains a solve slot, queueing within the configured bounds. On
// success it returns a release function that must be called exactly once.
// Errors: errOverloaded (queue full on arrival), errQueueWait (queue wait
// expired), or ctx.Err() when the caller gave up first.
func (a *admission) acquire(ctx context.Context) (release func(), err error) {
	grant := func() func() {
		a.active.Add(1)
		a.admitted.Add(1)
		a.gActive.Add(1)
		a.gAdmitted.Add(1)
		var released atomic.Bool
		return func() {
			if released.Swap(true) {
				return
			}
			a.active.Add(-1)
			a.gActive.Add(-1)
			<-a.slots
		}
	}
	select {
	case a.slots <- struct{}{}:
		return grant(), nil
	default:
	}
	if a.queued.Add(1) > a.maxQueue {
		a.queued.Add(-1)
		a.rejected.Add(1)
		a.gRejected.Add(1)
		return nil, errOverloaded
	}
	a.gQueued.Add(1)
	defer func() {
		a.queued.Add(-1)
		a.gQueued.Add(-1)
	}()
	t := time.NewTimer(a.wait)
	defer t.Stop()
	select {
	case a.slots <- struct{}{}:
		return grant(), nil
	case <-t.C:
		a.timedOut.Add(1)
		a.gTimeout.Add(1)
		return nil, errQueueWait
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// stats returns the admission counters for /api/v1/stats.
func (a *admission) stats() map[string]int64 {
	return map[string]int64{
		"active":         a.active.Load(),
		"queued":         a.queued.Load(),
		"admitted":       a.admitted.Load(),
		"rejected":       a.rejected.Load(),
		"queue_timeouts": a.timedOut.Load(),
	}
}

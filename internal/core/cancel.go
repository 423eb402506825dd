package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrCanceled is the sentinel wrapped by interrupted runs whose context was
// canceled; errors.Is(err, context.Canceled) also holds.
var ErrCanceled = fmt.Errorf("core: query canceled: %w", context.Canceled)

// ErrDeadline is the sentinel wrapped by interrupted runs whose context's
// deadline expired; errors.Is(err, context.DeadlineExceeded) also holds.
var ErrDeadline = fmt.Errorf("core: query deadline exceeded: %w", context.DeadlineExceeded)

// InterruptError is returned by ExistContext/UnivContext when a run is
// canceled or times out. It wraps ErrCanceled or ErrDeadline (so errors.Is
// works against both the sentinels and the context errors) and carries the
// statistics — and, when Options.Explain was set, the execution profile —
// accumulated up to the interrupt. The partial figures are exact counts of
// the work actually performed; they are not estimates of the full run.
type InterruptError struct {
	// Reason is ErrCanceled or ErrDeadline.
	Reason error
	// Stats holds the counters accumulated before the interrupt. Phase
	// wall times cover only the elapsed portion of each phase.
	Stats Stats
	// Explain is the partial execution profile (visits, attempts,
	// extensions so far) when Options.Explain was set; nil otherwise.
	Explain *Explain
}

func (e *InterruptError) Error() string { return e.Reason.Error() }

// Unwrap exposes the sentinel for errors.Is/As chains.
func (e *InterruptError) Unwrap() error { return e.Reason }

// canceler flag states.
const (
	cxlRunning  int32 = 0
	cxlCanceled int32 = 1
	cxlDeadline int32 = 2
)

// canceler translates a context's cancellation into an atomic flag the
// solver loops can poll without touching channels: a nil *canceler (no
// cancelable context) costs one pointer test per check, an armed one a
// single atomic load. A watcher goroutine sets the flag when the context
// fires; release stops the watcher when the run finishes first.
type canceler struct {
	flag atomic.Int32
	stop chan struct{}
	once sync.Once
}

// newCanceler arms a watcher for ctx. It returns (nil, no-op) when ctx can
// never be canceled, so uncancelable runs pay only nil checks. An
// already-expired context sets the flag synchronously, making
// cancel-before-start deterministic.
func newCanceler(ctx context.Context) (*canceler, func()) {
	if ctx == nil || ctx.Done() == nil {
		return nil, func() {}
	}
	c := &canceler{stop: make(chan struct{})}
	if err := ctx.Err(); err != nil {
		c.set(err)
		return c, func() {}
	}
	go func() {
		select {
		case <-ctx.Done():
			c.set(ctx.Err())
		case <-c.stop:
		}
	}()
	return c, c.release
}

func (c *canceler) set(err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		c.flag.Store(cxlDeadline)
	} else {
		c.flag.Store(cxlCanceled)
	}
}

// release stops the watcher goroutine; safe to call multiple times and on a
// nil receiver.
func (c *canceler) release() {
	if c != nil && c.stop != nil {
		c.once.Do(func() { close(c.stop) })
	}
}

// state is the hot-path check: 0 while running, cxlCanceled/cxlDeadline once
// the context fired. Nil receivers report running.
func (c *canceler) state() int32 {
	if c == nil {
		return cxlRunning
	}
	return c.flag.Load()
}

// reason maps the flag to its sentinel error.
func (c *canceler) reason() error {
	if c.flag.Load() == cxlDeadline {
		return ErrDeadline
	}
	return ErrCanceled
}

// interrupt builds the typed error carrying the partial stats and profile.
func (c *canceler) interrupt(stats Stats, ex *Explain) *InterruptError {
	return &InterruptError{Reason: c.reason(), Stats: stats, Explain: ex}
}

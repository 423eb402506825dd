package prof

import (
	"sync"
	"time"
)

// Window is one captured profiling window: a short CPU profile plus the
// heap/alloc snapshot taken as it closed. Profiles are stored in pprof's
// gzip-compressed protobuf format, exactly as a /debug/pprof download would
// deliver them.
type Window struct {
	// ID is the monotonically increasing window id (never reused, so ids stay
	// valid across ring wraparound).
	ID int64 `json:"id"`
	// Start/End bound the CPU capture.
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// CPU is the window's CPU profile (gzipped pprof proto); nil when the
	// capture failed (Err says why).
	CPU []byte `json:"-"`
	// Heap is the heap/alloc snapshot taken at window close (gzipped pprof
	// proto).
	Heap []byte `json:"-"`
	// CPUSamples counts the decoded CPU samples, for the window listing.
	CPUSamples int `json:"cpu_samples"`
	// Labels maps each of labelKeys to the distinct values its CPU samples
	// carry, so clients can find the window holding a query kind or trace.
	Labels map[string][]string `json:"labels,omitempty"`
	// Pinned windows survive retention eviction; PinReason says what pinned
	// them ("slow", "hung", "slo-burn", ...).
	Pinned    bool   `json:"pinned,omitempty"`
	PinReason string `json:"pin_reason,omitempty"`
	// Cut reports the window was ended early by a pin (watchdog or SLO
	// breach) rather than running its full duration.
	Cut bool `json:"cut,omitempty"`
	// Err records a capture failure (e.g. another CPU profile was running).
	Err string `json:"error,omitempty"`
}

// Store is the bounded ring of captured windows. Retention evicts the oldest
// unpinned windows beyond retain; pinned windows are kept in a separate,
// also-bounded budget so an anomaly burst cannot grow memory without bound.
type Store struct {
	mu        sync.Mutex
	retain    int
	maxPinned int
	nextID    int64
	windows   []*Window // oldest first
}

// NewStore returns a store retaining up to retain unpinned and maxPinned
// pinned windows (minimums of 2 and 1 are enforced).
func NewStore(retain, maxPinned int) *Store {
	if retain < 2 {
		retain = 2
	}
	if maxPinned < 1 {
		maxPinned = 1
	}
	return &Store{retain: retain, maxPinned: maxPinned}
}

// Add stores one window, assigns its ID, and evicts past the retention
// bounds. It returns the assigned id.
func (s *Store) Add(w *Window) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	w.ID = s.nextID
	s.windows = append(s.windows, w)
	s.evictLocked()
	return w.ID
}

// evictLocked drops the oldest unpinned windows beyond retain and the oldest
// pinned windows beyond maxPinned.
func (s *Store) evictLocked() {
	unpinned, pinned := 0, 0
	for _, w := range s.windows {
		if w.Pinned {
			pinned++
		} else {
			unpinned++
		}
	}
	if unpinned <= s.retain && pinned <= s.maxPinned {
		return
	}
	kept := s.windows[:0]
	for _, w := range s.windows {
		switch {
		case w.Pinned && pinned > s.maxPinned:
			pinned--
		case !w.Pinned && unpinned > s.retain:
			unpinned--
		default:
			kept = append(kept, w)
		}
	}
	// Clear the tail so evicted windows' profile bytes are collectable.
	for i := len(kept); i < len(s.windows); i++ {
		s.windows[i] = nil
	}
	s.windows = kept
}

// Get returns a copy of the window with the given id. The profile byte
// slices are shared with the store but immutable once captured, so reads
// race-cleanly overlap Pin and Add.
func (s *Store) Get(id int64) (Window, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, w := range s.windows {
		if w.ID == id {
			return *w, true
		}
	}
	return Window{}, false
}

// Latest returns a copy of the newest completed window; ok is false when the
// store is empty.
func (s *Store) Latest() (Window, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.windows) == 0 {
		return Window{}, false
	}
	return *s.windows[len(s.windows)-1], true
}

// List returns copies of the retained windows, oldest first.
func (s *Store) List() []Window {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Window, len(s.windows))
	for i, w := range s.windows {
		out[i] = *w
	}
	return out
}

// Len reports the number of retained windows.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.windows)
}

// Pin marks the window so retention eviction skips it; the first reason
// sticks. Reports whether this call newly pinned it: false for an unknown id
// or a window already pinned.
func (s *Store) Pin(id int64, reason string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, w := range s.windows {
		if w.ID == id {
			if w.Pinned {
				return false
			}
			w.Pinned = true
			w.PinReason = reason
			return true
		}
	}
	return false
}

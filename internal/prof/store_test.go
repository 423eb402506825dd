package prof

import (
	"sync"
	"testing"
	"time"
)

func mkWindow(cpu int) *Window {
	return &Window{
		Start: time.Unix(1700000000, 0),
		End:   time.Unix(1700000010, 0),
		CPU:   make([]byte, cpu),
	}
}

func TestStoreRetentionEviction(t *testing.T) {
	s := NewStore(4, 2)
	var ids []int64
	for i := 0; i < 10; i++ {
		ids = append(ids, s.Add(mkWindow(100)))
	}
	if got := s.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4 (retain bound)", got)
	}
	// Only the newest 4 survive; ids are monotonic and never reused.
	list := s.List()
	for i, w := range list {
		want := ids[6+i]
		if w.ID != want {
			t.Fatalf("List[%d].ID = %d, want %d", i, w.ID, want)
		}
	}
	if _, ok := s.Get(ids[0]); ok {
		t.Fatal("evicted window still retrievable")
	}
	if latest, ok := s.Latest(); !ok || latest.ID != ids[9] {
		t.Fatalf("Latest = %+v, %v", latest, ok)
	}
}

func TestStoreWraparoundIDsMonotonic(t *testing.T) {
	s := NewStore(2, 1)
	var last int64
	for i := 0; i < 50; i++ {
		id := s.Add(mkWindow(10))
		if id <= last {
			t.Fatalf("id %d not monotonic after %d", id, last)
		}
		last = id
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d after wraparound, want 2", s.Len())
	}
}

func TestStorePinnedSurviveEviction(t *testing.T) {
	s := NewStore(2, 2)
	pinned := s.Add(mkWindow(10))
	if !s.Pin(pinned, "slow") {
		t.Fatal("Pin failed")
	}
	for i := 0; i < 8; i++ {
		s.Add(mkWindow(10))
	}
	w, ok := s.Get(pinned)
	if !ok {
		t.Fatal("pinned window evicted by unpinned churn")
	}
	if !w.Pinned || w.PinReason != "slow" {
		t.Fatalf("pinned window = %+v", w)
	}
	// 2 unpinned + 1 pinned retained.
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
}

func TestStorePinnedBudgetBounded(t *testing.T) {
	s := NewStore(2, 2)
	var pinnedIDs []int64
	for i := 0; i < 6; i++ {
		id := s.Add(mkWindow(10))
		s.Pin(id, "hung")
		pinnedIDs = append(pinnedIDs, id)
	}
	// Only the newest maxPinned pinned windows survive.
	if _, ok := s.Get(pinnedIDs[0]); ok {
		t.Fatal("oldest pinned window not evicted past maxPinned")
	}
	for _, id := range pinnedIDs[4:] {
		if _, ok := s.Get(id); !ok {
			t.Fatalf("recent pinned window %d evicted", id)
		}
	}
}

func TestStorePinFirstReasonSticks(t *testing.T) {
	s := NewStore(4, 2)
	id := s.Add(mkWindow(10))
	if !s.Pin(id, "slow") {
		t.Fatal("first Pin did not report a new pin")
	}
	if s.Pin(id, "hung") {
		t.Fatal("re-Pin of a pinned window reported a new pin")
	}
	if w, _ := s.Get(id); w.PinReason != "slow" {
		t.Fatalf("PinReason = %q, want the first reason", w.PinReason)
	}
	if s.Pin(999, "x") {
		t.Fatal("Pin of unknown id reported success")
	}
}

// TestStoreConcurrentCaptureVsRead drives Add/Pin against Get/Latest/List
// concurrently; run under -race this proves the capture loop and the HTTP
// handlers never race on window state.
func TestStoreConcurrentCaptureVsRead(t *testing.T) {
	s := NewStore(8, 4)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // capture loop
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := s.Add(mkWindow(64))
			if i%3 == 0 {
				s.Pin(id, "slow")
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() { // HTTP readers
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, w := range s.List() {
					_ = len(w.CPU)
					_, _ = s.Get(w.ID)
				}
				if w, ok := s.Latest(); ok {
					_ = w.Pinned
				}
			}
		}()
	}
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
	if s.Len() > 12 {
		t.Fatalf("Len = %d exceeds retain+maxPinned", s.Len())
	}
}

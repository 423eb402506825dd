package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
)

func TestParseTraceparent(t *testing.T) {
	valid := "00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01"
	tc, err := ParseTraceparent(valid)
	if err != nil {
		t.Fatalf("parse %q: %v", valid, err)
	}
	if tc.TraceIDString() != "0123456789abcdef0123456789abcdef" {
		t.Errorf("trace id = %q", tc.TraceIDString())
	}
	if tc.SpanIDString() != "00f067aa0ba902b7" {
		t.Errorf("span id = %q", tc.SpanIDString())
	}
	if tc.Flags != 0x01 {
		t.Errorf("flags = %#x", tc.Flags)
	}
	if got := tc.Traceparent(); got != valid {
		t.Errorf("round trip = %q, want %q", got, valid)
	}

	bad := map[string]string{
		"empty":          "",
		"short":          "00-0123-4567-01",
		"long":           valid + "-extra",
		"version 01":     "01" + valid[2:],
		"version ff":     "ff" + valid[2:],
		"no dashes":      strings.ReplaceAll(valid, "-", "_"),
		"bad hex trace":  "00-0123456789abcdef0123456789abcdeg-00f067aa0ba902b7-01",
		"bad hex span":   "00-0123456789abcdef0123456789abcdef-00f067aa0ba902bg-01",
		"bad hex flags":  "00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-0g",
		"all-zero trace": "00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"all-zero span":  "00-0123456789abcdef0123456789abcdef-0000000000000000-01",
		"uppercase hex":  "00-0123456789ABCDEF0123456789ABCDEF-00F067AA0BA902B7-01",
	}
	for name, s := range bad {
		if _, err := ParseTraceparent(s); err == nil {
			t.Errorf("%s: ParseTraceparent(%q) accepted", name, s)
		}
	}
}

func TestNewTraceContext(t *testing.T) {
	tc := NewTraceContext()
	if !tc.IsValid() {
		t.Fatal("new trace context is invalid")
	}
	if len(tc.TraceIDString()) != 32 || len(tc.SpanIDString()) != 16 {
		t.Fatalf("id lengths: %q %q", tc.TraceIDString(), tc.SpanIDString())
	}
	back, err := ParseTraceparent(tc.Traceparent())
	if err != nil {
		t.Fatalf("re-parse own traceparent %q: %v", tc.Traceparent(), err)
	}
	if back != tc {
		t.Fatalf("round trip: %+v != %+v", back, tc)
	}
}

func TestChildKeepsTraceID(t *testing.T) {
	parent := NewTraceContext()
	child := parent.Child()
	if !child.IsValid() {
		t.Fatal("child is invalid")
	}
	if child.TraceID != parent.TraceID {
		t.Error("child changed the trace ID")
	}
	if child.SpanID == parent.SpanID {
		t.Error("child kept the parent span ID")
	}
	if child.Flags != parent.Flags {
		t.Error("child changed the flags")
	}
}

// Trace and request IDs must stay unique under concurrent generation — the
// middleware mints them on every request goroutine.
func TestIDUniquenessConcurrent(t *testing.T) {
	const goroutines, per = 8, 200
	var mu sync.Mutex
	seen := make(map[string]bool, goroutines*per*2)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids := make([]string, 0, per*2)
			for i := 0; i < per; i++ {
				tc := NewTraceContext()
				if !tc.IsValid() {
					t.Error("generated invalid trace context")
				}
				ids = append(ids, tc.TraceIDString()+tc.SpanIDString(), NewRequestID())
			}
			mu.Lock()
			defer mu.Unlock()
			for _, id := range ids {
				if seen[id] {
					t.Errorf("duplicate id %q", id)
				}
				seen[id] = true
			}
		}()
	}
	wg.Wait()
}

func TestWithTraceAndTraceFrom(t *testing.T) {
	if _, ok := TraceFrom(context.Background()); ok {
		t.Fatal("empty context reported a trace")
	}
	tc := NewTraceContext()
	ctx := WithTrace(context.Background(), tc)
	got, ok := TraceFrom(ctx)
	if !ok || got != tc {
		t.Fatalf("TraceFrom = %+v, %v", got, ok)
	}
}

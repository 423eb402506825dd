package subst

import (
	"errors"
	"math"
	"runtime"
	"testing"
)

// TestTableCapacityError checks NewTable rejects dimensions whose
// nested-array keys would overflow int32, with ErrCapacity.
func TestTableCapacityError(t *testing.T) {
	for _, kind := range []TableKind{Hash, Nested} {
		if _, err := NewTable(kind, 2, math.MaxInt32); !errors.Is(err, ErrCapacity) {
			t.Errorf("NewTable(%v) error = %v, want ErrCapacity", kind, err)
		}
		if _, err := NewTable(kind, -1, 4); err == nil {
			t.Errorf("NewTable(%v) accepted negative pars", kind)
		}
		if _, err := NewTable(kind, 2, 1<<20); err != nil {
			t.Errorf("NewTable(%v) rejected valid dims: %v", kind, err)
		}
	}
}

// TestNestedAscendingKeysLinear is the regression test for the exact-growth
// O(n²) bug in nestedTable.slot: interning n keys with ascending symbol
// values used to reallocate the node array on every insert, copying ~n²/2
// int32s in total. With geometric growth the total bytes allocated stay
// linear in n.
func TestNestedAscendingKeysLinear(t *testing.T) {
	const n = 50_000
	tb := mustNewTable(t, Nested, 1, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := int32(0); i < n; i++ {
		tb.Key(Subst{i})
	}
	runtime.ReadMemStats(&after)
	total := after.TotalAlloc - before.TotalAlloc
	// Exact growth allocates ~4·n²/2 = 5 GB here; geometric growth stays
	// within a small multiple of the final footprint (~134 B/key observed,
	// dominated by the interned substs themselves). 256·n is two orders of
	// magnitude under the quadratic cost and a loose 2× over the linear one.
	if limit := uint64(256 * n); total > limit {
		t.Fatalf("interning %d ascending keys allocated %d bytes (> %d): growth looks quadratic", n, total, limit)
	}
	if tb.Len() != n {
		t.Fatalf("Len = %d, want %d", tb.Len(), n)
	}
	// Bytes stays consistent with geometric growth: linear in n.
	if b := tb.Bytes(); b <= 0 || b > 64*n {
		t.Fatalf("Bytes = %d", b)
	}
}

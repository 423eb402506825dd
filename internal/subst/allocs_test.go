//go:build !race

package subst

import "testing"

// TestHashTableLookupAllocs guards the hash table's hot path: Key and
// Lookup on an already-interned substitution hash its values and probe the
// index in place, without allocating. Race instrumentation changes
// allocation counts, hence the build tag.
func TestHashTableLookupAllocs(t *testing.T) {
	tb := mustNewTable(t, Hash, 3, 16)
	s := Subst{1, NoSym, 7}
	want := tb.Key(s)
	if n := testing.AllocsPerRun(100, func() {
		if tb.Key(s) != want {
			t.Fatal("Key changed for an interned substitution")
		}
	}); n != 0 {
		t.Errorf("Key on an interned substitution: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if k, ok := tb.Lookup(s); !ok || k != want {
			t.Fatal("Lookup missed an interned substitution")
		}
	}); n != 0 {
		t.Errorf("Lookup on an interned substitution: %v allocs, want 0", n)
	}
}

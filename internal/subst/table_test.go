package subst

import (
	"errors"
	"math"
	"math/rand"
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

// TestHashTableModel runs seeded random Key, Lookup and Get calls on the
// hash table at 0, 1, 2 and 5 parameters against a map keyed by the
// substitution's string form, through several index resizes. A Get result
// taken before 10k further Key calls must be unchanged after them.
func TestHashTableModel(t *testing.T) {
	for _, pars := range []int{0, 1, 2, 5} {
		rng := rand.New(rand.NewSource(int64(pars) + 1))
		tb := mustNewTable(t, Hash, pars, 64)
		ht := tb.(*hashTable)
		ref := map[string]int32{}
		var keys []Subst
		gen := func() Subst { return genSubst(rng, pars, 64) }
		early := tb.Get(tb.Key(New(pars)))
		ref[New(pars).String()] = 0
		keys = append(keys, New(pars))
		earlyWant := early.Clone()
		resizes, slots := 0, len(ht.index)
		for inserts := 0; inserts < 10_000; {
			s := gen()
			want, known := ref[s.String()]
			switch rng.Intn(3) {
			case 0:
				got, ok := tb.Lookup(s)
				if ok != known || (ok && got != want) {
					t.Fatalf("pars %d: Lookup(%v) = %d, %v; model %d, %v", pars, s, got, ok, want, known)
				}
			default:
				inserts++
				got := tb.Key(s)
				if !known {
					want = int32(len(keys))
					ref[s.String()] = want
					keys = append(keys, s)
				}
				if got != want {
					t.Fatalf("pars %d: Key(%v) = %d, model %d", pars, s, got, want)
				}
			}
			if k := rng.Intn(len(keys)); !tb.Get(int32(k)).Equal(keys[k]) {
				t.Fatalf("pars %d: Get(%d) = %v, model %v", pars, k, tb.Get(int32(k)), keys[k])
			}
			if len(ht.index) != slots {
				resizes, slots = resizes+1, len(ht.index)
			}
		}
		if tb.Len() != len(keys) {
			t.Fatalf("pars %d: Len = %d, model %d", pars, tb.Len(), len(keys))
		}
		if want := int64(len(keys)) * int64(8*pars+72); tb.Bytes() != want {
			t.Fatalf("pars %d: Bytes = %d, model %d", pars, tb.Bytes(), want)
		}
		if pars >= 1 && resizes < 3 {
			t.Fatalf("pars %d: %d index resizes over %d keys, want several", pars, resizes, len(keys))
		}
		if !early.Equal(earlyWant) || cap(early) != pars {
			t.Fatalf("pars %d: early Get result changed to %v (cap %d), want %v", pars, early, cap(early), earlyWant)
		}
	}
}

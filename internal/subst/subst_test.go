package subst

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// genSubst produces a random substitution over pars parameters with symbol
// keys in [0, symbols).
func genSubst(rng *rand.Rand, pars, symbols int) Subst {
	s := New(pars)
	for i := range s {
		if rng.Intn(2) == 0 {
			s[i] = int32(rng.Intn(symbols))
		}
	}
	return s
}

func TestNewAndBasics(t *testing.T) {
	s := New(3)
	if s.NumBound() != 0 {
		t.Fatalf("fresh substitution has bound parameters: %v", s)
	}
	s[1] = 7
	if !s.Bound(1) || s.Bound(0) {
		t.Errorf("Bound misreports: %v", s)
	}
	if s.NumBound() != 1 {
		t.Errorf("NumBound = %d, want 1", s.NumBound())
	}
	c := s.Clone()
	c[1] = 9
	if s[1] != 7 {
		t.Errorf("Clone aliases original")
	}
	if !s.Covers([]int32{1}) || s.Covers([]int32{0, 1}) {
		t.Errorf("Covers misreports")
	}
}

func TestMergeBasics(t *testing.T) {
	a := Subst{0, NoSym, 5}
	b := Subst{NoSym, 3, 5}
	m, ok := Merge(a, b)
	if !ok || !m.Equal(Subst{0, 3, 5}) {
		t.Fatalf("Merge = %v, %v", m, ok)
	}
	conflict := Subst{1, NoSym, 5}
	if _, ok := Merge(a, conflict); ok {
		t.Fatalf("conflicting merge succeeded")
	}
	// MergeInto matches Merge.
	dst := New(3)
	if !MergeInto(dst, a, b) || !dst.Equal(m) {
		t.Errorf("MergeInto = %v", dst)
	}
	if MergeInto(dst, a, conflict) {
		t.Errorf("MergeInto on conflict succeeded")
	}
}

func TestMergeProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 3000; trial++ {
		pars := 1 + rng.Intn(4)
		a := genSubst(rng, pars, 3)
		b := genSubst(rng, pars, 3)

		// Commutativity (including of failure).
		ab, okAB := Merge(a, b)
		ba, okBA := Merge(b, a)
		if okAB != okBA {
			t.Fatalf("merge commutativity of success: %v %v", a, b)
		}
		if okAB && !ab.Equal(ba) {
			t.Fatalf("merge not commutative: %v %v", a, b)
		}
		// Idempotence.
		if aa, ok := Merge(a, a); !ok || !aa.Equal(a) {
			t.Fatalf("merge not idempotent on %v", a)
		}
		// Identity.
		if ae, ok := Merge(a, New(pars)); !ok || !ae.Equal(a) {
			t.Fatalf("empty not identity for %v", a)
		}
		// Result extends both inputs.
		if okAB && (!ab.Extends(a) || !ab.Extends(b)) {
			t.Fatalf("merge result %v does not extend both %v %v", ab, a, b)
		}
		// Associativity where all merges succeed.
		c := genSubst(rng, pars, 3)
		l1, ok1 := Merge(ab, c)
		bc, ok2 := Merge(b, c)
		if okAB && ok2 {
			l2, ok3 := Merge(a, bc)
			if ok1 && ok3 && !l1.Equal(l2) {
				t.Fatalf("merge not associative: %v %v %v", a, b, c)
			}
			if ok1 != ok3 {
				t.Fatalf("merge associativity of success: %v %v %v", a, b, c)
			}
		}
	}
}

func TestMergeBindingsAndContradicts(t *testing.T) {
	s := Subst{0, NoSym, 2}
	bs := []int32{1, 9}
	dst := s.Clone()
	if !MergeBindings(dst, s, bs) || dst[1] != 9 {
		t.Fatalf("MergeBindings = %v", dst)
	}
	conflict := []int32{0, 5}
	dst = s.Clone()
	if MergeBindings(dst, s, conflict) {
		t.Fatalf("conflicting MergeBindings succeeded")
	}
	if Contradicts(s, bs) {
		t.Errorf("Contradicts true for binding on unbound parameter")
	}
	if !Contradicts(s, conflict) {
		t.Errorf("Contradicts false for conflicting binding")
	}
	if Contradicts(s, []int32{0, 0}) {
		t.Errorf("Contradicts true for agreeing binding")
	}
}

func TestMergeAll(t *testing.T) {
	got, ok := MergeAll(3, []Subst{{0, NoSym, NoSym}, {NoSym, 1, NoSym}, {0, NoSym, 2}})
	if !ok || !got.Equal(Subst{0, 1, 2}) {
		t.Fatalf("MergeAll = %v, %v", got, ok)
	}
	if _, ok := MergeAll(1, []Subst{{0}, {1}}); ok {
		t.Fatalf("MergeAll over conflicting substitutions succeeded")
	}
	if got, ok := MergeAll(2, nil); !ok || got.NumBound() != 0 {
		t.Fatalf("MergeAll of empty list = %v, %v", got, ok)
	}
}

func TestForEachExtension(t *testing.T) {
	doms := Domains{{0, 1}, {0, 1, 2}, {5}}
	base := Subst{NoSym, 1, NoSym}
	var seen []Subst
	ForEachExtension(base, []int32{0, 1, 2}, doms, func(s Subst) bool {
		seen = append(seen, s.Clone())
		return true
	})
	// Parameter 1 is already bound: only parameters 0 and 2 are enumerated.
	if len(seen) != 2*1 {
		t.Fatalf("got %d extensions, want 2: %v", len(seen), seen)
	}
	for _, s := range seen {
		if s[1] != 1 || s[2] != 5 {
			t.Errorf("extension %v does not preserve/bind correctly", s)
		}
		if !s.Extends(base) {
			t.Errorf("extension %v does not extend base %v", s, base)
		}
	}
	// Fully bound base: called once with base.
	full := Subst{0, 1, 5}
	count := 0
	ForEachExtension(full, []int32{0, 1, 2}, doms, func(s Subst) bool {
		count++
		if !s.Equal(full) {
			t.Errorf("full base enumeration yielded %v", s)
		}
		return true
	})
	if count != 1 {
		t.Errorf("full base called fn %d times, want 1", count)
	}
	// Early stop.
	count = 0
	done := ForEachExtension(base, []int32{0, 2}, doms, func(s Subst) bool {
		count++
		return false
	})
	if done || count != 1 {
		t.Errorf("early stop: done=%v count=%d", done, count)
	}
}

func TestForEachFullAndCount(t *testing.T) {
	doms := Domains{{0, 1, 2}, {3, 4}}
	if doms.Count() != 6 {
		t.Fatalf("Count = %d, want 6", doms.Count())
	}
	seen := map[string]bool{}
	ForEachFull(2, doms, func(s Subst) bool {
		seen[s.String()] = true
		return true
	})
	if len(seen) != 6 {
		t.Fatalf("ForEachFull enumerated %d distinct, want 6", len(seen))
	}
	// Zero parameters: exactly the empty substitution.
	n := 0
	ForEachFull(0, Domains{}, func(s Subst) bool { n++; return true })
	if n != 1 {
		t.Errorf("ForEachFull(0) called fn %d times, want 1", n)
	}
}

func TestUniformDomains(t *testing.T) {
	d := Uniform(3, []int32{7, 8})
	if len(d) != 3 || len(d[1]) != 2 {
		t.Fatalf("Uniform = %v", d)
	}
}

// mustNewTable builds a table, failing the test on a capacity error.
func mustNewTable(tb testing.TB, kind TableKind, pars, symbols int) Table {
	t, err := NewTable(kind, pars, symbols)
	if err != nil {
		tb.Fatalf("NewTable(%v, %d, %d): %v", kind, pars, symbols, err)
	}
	return t
}

func TestTables(t *testing.T) {
	// The subtest names are fixed rather than read from the wire names, so
	// that renaming a wire name does not rename the tests.
	names := map[TableKind]string{Hash: "hashing", Nested: "nested"}
	for _, kind := range []TableKind{Hash, Nested} {
		t.Run(names[kind], func(t *testing.T) {
			tb := mustNewTable(t, kind, 2, 4)
			a := Subst{0, NoSym}
			b := Subst{0, 3}
			ka := tb.Key(a)
			kb := tb.Key(b)
			if ka == kb {
				t.Fatalf("distinct substitutions share a key")
			}
			if got := tb.Key(a.Clone()); got != ka {
				t.Fatalf("re-interning a gave %d, want %d", got, ka)
			}
			if !tb.Get(ka).Equal(a) || !tb.Get(kb).Equal(b) {
				t.Fatalf("Get returned wrong substitutions")
			}
			if tb.Len() != 2 {
				t.Fatalf("Len = %d, want 2", tb.Len())
			}
			if k, ok := tb.Lookup(a); !ok || k != ka {
				t.Fatalf("Lookup(a) = %d, %v", k, ok)
			}
			if _, ok := tb.Lookup(Subst{3, 3}); ok {
				t.Fatalf("Lookup of absent substitution succeeded")
			}
			if tb.Bytes() <= 0 {
				t.Fatalf("Bytes() = %d, want positive", tb.Bytes())
			}
		})
	}
}

func TestTablesZeroParams(t *testing.T) {
	for _, kind := range []TableKind{Hash, Nested} {
		tb := mustNewTable(t, kind, 0, 4)
		k1 := tb.Key(Subst{})
		k2 := tb.Key(Subst{})
		if k1 != k2 || tb.Len() != 1 {
			t.Errorf("%v: empty substitution interning broken", kind)
		}
	}
}

func TestTableGrowthBeyondInitialWidth(t *testing.T) {
	// Symbol keys beyond the declared bound must still work (nested grows).
	tb := mustNewTable(t, Nested, 2, 2)
	s := Subst{10, 11}
	k := tb.Key(s)
	if got, ok := tb.Lookup(s); !ok || got != k {
		t.Fatalf("nested growth: Lookup = %d, %v", got, ok)
	}
	if !tb.Get(k).Equal(s) {
		t.Fatalf("nested growth: Get mismatch")
	}
}

// TestTableEquivalence checks with testing/quick that the hash and nested
// tables implement the same abstract interning map.
func TestTableEquivalence(t *testing.T) {
	f := func(raw [][4]uint8) bool {
		h, _ := NewTable(Hash, 3, 8)
		n, _ := NewTable(Nested, 3, 8)
		keysH := map[string]int32{}
		keysN := map[string]int32{}
		for _, r := range raw {
			s := Subst{int32(r[0] % 9), int32(r[1] % 9), int32(r[2] % 9)}
			for i := range s {
				if s[i] == 8 {
					s[i] = NoSym
				}
			}
			kh := h.Key(s)
			kn := n.Key(s)
			if prev, ok := keysH[s.String()]; ok && prev != kh {
				return false
			}
			if prev, ok := keysN[s.String()]; ok && prev != kn {
				return false
			}
			keysH[s.String()] = kh
			keysN[s.String()] = kn
			if !h.Get(kh).Equal(s) || !n.Get(kn).Equal(s) {
				return false
			}
		}
		return h.Len() == n.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestExtensionsCoverAll checks with testing/quick that extension
// enumeration yields exactly the full substitutions extending the base.
func TestExtensionsCoverAll(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pars := 1 + rng.Intn(3)
		symbols := 1 + rng.Intn(3)
		var all []int32
		for i := 0; i < symbols; i++ {
			all = append(all, int32(i))
		}
		doms := Uniform(pars, all)
		base := genSubst(rng, pars, symbols)
		got := map[string]bool{}
		ForEachExtension(base, AllParams(pars), doms, func(s Subst) bool {
			got[s.String()] = true
			return true
		})
		want := map[string]bool{}
		ForEachFull(pars, doms, func(s Subst) bool {
			if s.Extends(base) {
				want[s.String()] = true
			}
			return true
		})
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

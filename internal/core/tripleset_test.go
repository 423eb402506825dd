package core

import (
	"math/rand"
	"slices"
	"testing"

	"rpq/internal/label"
	"rpq/internal/pattern"
	"rpq/internal/subst"
)

// mapTripleSet is the reference model of hashTripleSet: one Go map of
// substitution keys per (v, s) base, with the same Bytes accounting.
type mapTripleSet struct {
	base   []map[int32]struct{}
	states int
	n      int
	bytes  int64
}

func (h *mapTripleSet) Add(t triple) bool {
	idx := int(t.v)*h.states + int(t.s)
	m := h.base[idx]
	if m == nil {
		m = map[int32]struct{}{}
		h.base[idx] = m
		h.bytes += 48
	}
	if _, ok := m[t.th]; ok {
		return false
	}
	m[t.th] = struct{}{}
	h.n++
	h.bytes += 16
	return true
}

func (h *mapTripleSet) Bytes() int64 { return int64(len(h.base))*8 + h.bytes }

func (h *mapTripleSet) Release(v int32) {
	for s := 0; s < h.states; s++ {
		idx := int(v)*h.states + s
		if m := h.base[idx]; m != nil {
			h.bytes -= 48 + 16*int64(len(m))
			h.base[idx] = nil
		}
	}
}

// TestHashTripleSetMatchesMapModel drives the open-addressed reach set and
// the map model with one seeded random sequence of Add and Release. Keys
// include badSubstKey and 0, and one base grows past several doublings;
// every Add result, Len and Bytes must agree at every step.
func TestHashTripleSetMatchesMapModel(t *testing.T) {
	const verts, states = 6, 3
	ts, err := newTripleSet(subst.Hash, verts, states)
	if err != nil {
		t.Fatal(err)
	}
	ref := &mapTripleSet{base: make([]map[int32]struct{}, verts*states), states: states}
	rng := rand.New(rand.NewSource(11))
	check := func(step int, what string) {
		t.Helper()
		if ts.Len() != ref.n || ts.Bytes() != ref.Bytes() {
			t.Fatalf("step %d (%s): Len/Bytes = %d/%d, model %d/%d", step, what, ts.Len(), ts.Bytes(), ref.n, ref.Bytes())
		}
	}
	for step := 0; step < 20000; step++ {
		if rng.Intn(500) == 0 {
			v := int32(1 + rng.Intn(verts-1)) // vertex 0 keeps its large base
			ts.Release(v)
			ref.Release(v)
			check(step, "release")
			continue
		}
		tr := triple{v: int32(rng.Intn(verts)), s: int32(rng.Intn(states))}
		switch r := rng.Intn(10); {
		case r == 0:
			tr.th = badSubstKey
		case r == 1:
			tr.th = 0
		case tr.v == 0 && tr.s == 0:
			tr.th = int32(rng.Intn(1000)) // grows far past the initial capacity
		default:
			tr.th = int32(rng.Intn(40))
		}
		if got, want := ts.Add(tr), ref.Add(tr); got != want {
			t.Fatalf("step %d: Add(%+v) = %v, model %v", step, tr, got, want)
		}
		check(step, "add")
	}
	h := ts.(*hashTripleSet)
	if e := h.base[0]; e >= 0 {
		t.Fatalf("base (0,0) entry %d does not point into the slab", e)
	}
	if big := h.slab[-1-h.base[0]]; len(big) < 1+keySetInitCap<<6 {
		t.Fatalf("base (0,0) has %d slots; the sequence should have doubled it at least six times", len(big))
	}
}

// TestHashTripleSetPromoteRelease walks one base through every layout: an
// inline single key, promotion to a slab keyset on the second key, Release,
// and a fresh inline key in the released base and slab slot. Len and Bytes
// must equal the map model at every step.
func TestHashTripleSetPromoteRelease(t *testing.T) {
	const verts, states = 3, 2
	ts, err := newTripleSet(subst.Hash, verts, states)
	if err != nil {
		t.Fatal(err)
	}
	h := ts.(*hashTripleSet)
	ref := &mapTripleSet{base: make([]map[int32]struct{}, verts*states), states: states}
	base := func(v, s int32) int32 { return h.base[int(v)*states+int(s)] }
	step := func(what string, tr triple, want bool) {
		t.Helper()
		if got, model := ts.Add(tr), ref.Add(tr); got != want || model != want {
			t.Fatalf("%s: Add(%+v) = %v, model %v, want %v", what, tr, got, model, want)
		}
		if ts.Len() != ref.n || ts.Bytes() != ref.Bytes() {
			t.Fatalf("%s: Len/Bytes = %d/%d, model %d/%d", what, ts.Len(), ts.Bytes(), ref.n, ref.Bytes())
		}
	}
	release := func(what string, v int32) {
		t.Helper()
		ts.Release(v)
		ref.Release(v)
		if ts.Len() != ref.n || ts.Bytes() != ref.Bytes() {
			t.Fatalf("%s: Len/Bytes = %d/%d, model %d/%d", what, ts.Len(), ts.Bytes(), ref.n, ref.Bytes())
		}
	}

	step("single", triple{v: 1, s: 1, th: badSubstKey}, true)
	if e := base(1, 1); e <= 0 || len(h.slab) != 0 {
		t.Fatalf("single key: entry %d, slab %d; want inline, empty slab", e, len(h.slab))
	}
	step("single again", triple{v: 1, s: 1, th: badSubstKey}, false)
	step("promote", triple{v: 1, s: 1, th: 0}, true)
	if e := base(1, 1); e != -1 || len(h.slab) != 1 || h.slab[0].len() != 2 {
		t.Fatalf("promotion: entry %d, slab %d; want slab slot 0 with 2 keys", e, len(h.slab))
	}
	step("promoted dup", triple{v: 1, s: 1, th: badSubstKey}, false)
	step("third", triple{v: 1, s: 1, th: 7}, true)
	step("other vertex", triple{v: 2, s: 0, th: 7}, true)
	release("release", 1)
	if base(1, 0) != 0 || base(1, 1) != 0 || h.slab[0] != nil || base(2, 0) <= 0 {
		t.Fatalf("release left entries %d/%d, slab %v, other base %d", base(1, 0), base(1, 1), h.slab[0], base(2, 0))
	}
	step("re-add", triple{v: 1, s: 1, th: 0}, true)
	if e := base(1, 1); e <= 0 {
		t.Fatalf("re-add: entry %d, want inline", e)
	}
	step("re-promote", triple{v: 1, s: 1, th: 3}, true)
	if e := base(1, 1); e != -1 || len(h.slab) != 1 {
		t.Fatalf("re-promotion: entry %d, slab %d; want the released slot 0 reused", e, len(h.slab))
	}
	release("release other", 2)
	release("release again", 1)
}

// TestPrecompRetainsMatches runs the M_ts precomputation and then many more
// matches through the same engine: the stored entries' codes must keep
// decoding to the agree and disagree sets of their own label pair.
func TestPrecompRetainsMatches(t *testing.T) {
	for _, w := range corpus(t) {
		for _, kind := range []subst.TableKind{subst.Hash, subst.Nested} {
			q := MustCompile(pattern.MustParse(w.pat), w.g.U)
			var stats Stats
			e, err := newEngine(w.g, q, q.NFA, Options{Algo: AlgoPrecomp, Table: kind}, &stats)
			if err != nil {
				t.Fatal(err)
			}
			mts, _ := buildMTS(e, w.start)
			for v := 0; v < w.g.NumVertices(); v++ {
				for _, ge := range w.g.Out(int32(v)) {
					for id, tl := range q.NFA.Labels {
						if tl.ADCompatible() {
							e.match(tl, int32(id), ge.LabelID)
						}
					}
				}
			}
			n := 0
			for _, entries := range mts {
				for _, en := range entries {
					if !en.tl.ADCompatible() {
						if en.code != codePossible {
							t.Fatalf("%s/%v: generic M_ts entry holds code %d", w.name, kind, en.code)
						}
						continue
					}
					n++
					fresh := label.MatchAD(en.tl, w.g.Label(en.elID))
					if got := decodeMatch(e.slab, en.code); !sameMatch(got, &fresh) {
						t.Fatalf("%s/%v: stored M_ts match for %s vs %s changed: %+v, want %+v",
							w.name, kind, en.tl.Format(w.g.U, q.PS), w.g.Label(en.elID).Format(w.g.U), got, fresh)
					}
				}
			}
			if n == 0 {
				t.Fatalf("%s/%v: no AD-compatible M_ts entries", w.name, kind)
			}
		}
	}
}

// TestMemoSharesFailedMatch runs every AD-compatible (edge label,
// transition label) pair of the corpus through the memo twice. Every
// failed pair's slot holds codeFailed; every successful pair's code
// decodes equal to a fresh match, and every unconditional success holds
// the shared codeUncond; and the second pass only hits.
func TestMemoSharesFailedMatch(t *testing.T) {
	failed, uncond, records := 0, 0, 0
	for _, w := range corpus(t) {
		q := MustCompile(pattern.MustParse(w.pat), w.g.U)
		var stats Stats
		e, err := newEngine(w.g, q, q.NFA, Options{Algo: AlgoMemo}, &stats)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			misses := stats.MatchCacheMisses
			for elID, el := range w.g.Labels() {
				for id, tl := range q.NFA.Labels {
					if !tl.ADCompatible() {
						continue
					}
					c := e.match(tl, int32(id), int32(elID))
					row, _ := e.memo.row(int32(elID))
					fresh := label.MatchAD(tl, el)
					pair := func() string { return tl.Format(w.g.U, q.PS) + " vs " + el.Format(w.g.U) }
					switch {
					case row[id] != c:
						t.Fatalf("%s: %s: match returned %d, memo slot holds %d", w.name, pair(), c, row[id])
					case !fresh.OK:
						if c != codeFailed {
							t.Fatalf("%s: %s: failed pair holds code %d", w.name, pair(), c)
						}
						failed++
					case len(fresh.Agree) == 0 && len(fresh.Disagrees) == 0:
						if c != codeUncond {
							t.Fatalf("%s: %s: unconditional pair holds code %d", w.name, pair(), c)
						}
						uncond++
					default:
						if got := decodeMatch(e.slab, c); c < slabHeader || !sameMatch(got, &fresh) {
							t.Fatalf("%s: %s: code %d decodes to %+v, want %+v", w.name, pair(), c, got, fresh)
						}
						records++
					}
				}
			}
			if pass == 1 && stats.MatchCacheMisses != misses {
				t.Fatalf("%s: second pass missed %d times", w.name, stats.MatchCacheMisses-misses)
			}
		}
	}
	if failed == 0 || uncond == 0 || records == 0 {
		t.Fatalf("the corpus produced %d failed, %d unconditional and %d recorded matches; want each", failed, uncond, records)
	}
}

// TestPossiblyMatchesNeedsMemo checks that the retaining matcher refuses to
// run without the memo layer instead of handing out scratch storage.
func TestPossiblyMatchesNeedsMemo(t *testing.T) {
	w := corpus(t)[0]
	q := MustCompile(pattern.MustParse(w.pat), w.g.U)
	var stats Stats
	e, err := newEngine(w.g, q, q.NFA, Options{Algo: AlgoBasic}, &stats)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("possiblyMatches without the memo layer did not panic")
		}
	}()
	ge := w.g.Out(w.start)[0]
	e.possiblyMatches(q.NFA.Labels[0], 0, ge.LabelID)
}

// decodedMatch is a match code read back from the slab.
type decodedMatch struct {
	OK        bool
	Agree     label.Bindings
	Disagrees []label.Bindings
	DParams   []int32
}

// decodeMatch reads the record of code c back into bindings.
func decodeMatch(slab []int32, c int32) decodedMatch {
	if c == codeFailed {
		return decodedMatch{}
	}
	pairs := func(p []int32) label.Bindings {
		bs := label.Bindings{}
		for i := 0; i < len(p); i += 2 {
			bs = append(bs, label.Binding{Param: p[i], Sym: p[i+1]})
		}
		return bs
	}
	rec := slab[c:]
	na, nd, np := 2*rec[0], rec[1], rec[2]
	m := decodedMatch{OK: true, Agree: pairs(rec[3 : 3+na]), DParams: rec[3+na : 3+na+np]}
	d := rec[3+na+np:]
	for range nd {
		n := 2 * d[0]
		m.Disagrees = append(m.Disagrees, pairs(d[1:1+n]))
		d = d[1+n:]
	}
	return m
}

// sameMatch reports whether a decoded match equals a computed one,
// ignoring the fields of failed ones.
func sameMatch(a decodedMatch, b *label.Match) bool {
	if a.OK != b.OK {
		return false
	}
	if !b.OK {
		return true
	}
	return slices.Equal(a.Agree, b.Agree) &&
		slices.EqualFunc(a.Disagrees, b.Disagrees, slices.Equal) &&
		slices.Equal(a.DParams, b.DisagreeParams())
}

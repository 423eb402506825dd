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
	if big := ts.(*hashTripleSet).base[0]; len(big) < 1+keySetInitCap<<6 {
		t.Fatalf("base (0,0) has %d slots; the sequence should have doubled it at least six times", len(big))
	}
}

// TestPrecompRetainsMatches runs the M_ts precomputation and then many more
// matches through the same engine: the stored entries must keep the agree
// and disagree sets of their own label pair. AlgoPrecomp memoizes, so no
// entry aliases the scratch match that later calls overwrite.
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
							e.match(tl, int32(id), ge.Label, ge.LabelID)
						}
					}
				}
			}
			n := 0
			for _, entries := range mts {
				for _, en := range entries {
					if en.m == nil {
						continue
					}
					n++
					fresh := label.MatchAD(en.tl, en.el)
					if !sameMatch(en.m, &fresh) {
						t.Fatalf("%s/%v: stored M_ts match for %s vs %s changed: %+v, want %+v",
							w.name, kind, en.tl.Format(w.g.U, q.PS), en.el.Format(w.g.U, nil), *en.m, fresh)
					}
				}
			}
			if n == 0 {
				t.Fatalf("%s/%v: no AD-compatible M_ts entries", w.name, kind)
			}
		}
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
	e.possiblyMatches(q.NFA.Labels[0], 0, ge.Label, ge.LabelID)
}

// sameMatch reports whether two matches agree, ignoring the fields of
// failed ones.
func sameMatch(a, b *label.Match) bool {
	if a.OK != b.OK {
		return false
	}
	if !a.OK {
		return true
	}
	return slices.Equal(a.Agree, b.Agree) &&
		slices.EqualFunc(a.Disagrees, b.Disagrees, slices.Equal) &&
		slices.Equal(a.DisagreeParams(), b.DisagreeParams())
}

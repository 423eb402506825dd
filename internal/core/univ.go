package core

import (
	"context"
	"fmt"

	"rpq/internal/automata"
	"rpq/internal/graph"
	"rpq/internal/label"
	"rpq/internal/subst"
)

// Univ solves the universal query of Section 4: compute all pairs ⟨v, θ⟩
// such that there is a path from v0 to v and every path from v0 to v matches
// some sentence accepted by the pattern under θ.
//
// The basic/memo/precomputation algorithms require the determinism condition
// and return ErrNondeterministic when the runtime check fails; AlgoEnum and
// AlgoHybrid always apply. The direct algorithms return one (minimal merged)
// substitution per vertex; the enumeration-based ones return full
// substitutions over the parameter domains.
func Univ(g *graph.Graph, v0 int32, q *Query, opts Options) (*Result, error) {
	return UnivContext(context.Background(), g, v0, q, opts)
}

// UnivContext is Univ bounded by ctx: when ctx is canceled or its deadline
// passes, the run stops at the next check and returns an InterruptError
// wrapping ErrCanceled or ErrDeadline with the statistics (and, under
// Options.Explain, the profile) accumulated so far. The hybrid algorithm
// threads the same watcher through its inner existential pass. Bound a
// run's wall-clock time with context.WithTimeout.
func UnivContext(ctx context.Context, g *graph.Graph, v0 int32, q *Query, opts Options) (*Result, error) {
	if opts.Compact {
		return nil, fmt.Errorf("core: compaction is unsound for universal queries")
	}
	switch opts.Algo {
	case AlgoBasic, AlgoMemo, AlgoPrecomp:
		return solve(ctx, g, v0, q, opts, univWorklist)
	case AlgoEnum:
		return solve(ctx, g, v0, q, opts, univEnum)
	case AlgoHybrid:
		return solve(ctx, g, v0, q, opts, univHybrid)
	}
	return nil, fmt.Errorf("core: unknown algorithm %v", opts.Algo)
}

// dsEntry is one element of the determinism-and-substitution map M_ds,
// keyed by (edge label id, state): a match from that state's transitions,
// as a match code (codePossible for a generic label, re-matched per
// substitution).
type dsEntry struct {
	s1   int32
	code int32
	tl   *label.CTerm
	// ti attributes the entry's solve-time work to the originating DFA
	// transition in the explain profile; meaningful only when explaining.
	ti int32
}

// univWorklist is pseudo-code (6) with the memoization/precomputation
// variants folded in. The automaton is the opaque-label determinization of
// the pattern; the badstate is represented as state index dfa.NumStates and
// badsubst as substitution key badSubstKey.
func univWorklist(g *graph.Graph, v0 int32, q *Query, opts Options) (*Result, error) {
	var stats Stats
	dfa := q.DFA()
	switch opts.Completion {
	case CompleteTrap:
		dfa = automata.Complete(dfa)
	case CompleteExplicit:
		for _, tl := range dfa.Labels {
			if tl.HasParams() {
				return nil, fmt.Errorf("core: explicit completion requires a parameter-free pattern")
			}
		}
		dfa = automata.CompleteExplicit(dfa, g.Labels())
	}
	states := dfa.NumStates
	badstate := int32(states)
	e, err := newEngine(g, q, dfa, opts, &stats)
	if err != nil {
		return nil, err
	}

	seen, err := newTripleSet(opts.Table, g.NumVertices(), states+1)
	if err != nil {
		return nil, err
	}
	var work []triple
	push := func(v, s int32, key int32) {
		t := triple{v: v, s: s, th: key}
		if seen.Add(t) {
			work = append(work, t)
			stats.WorklistInserts++
			if live := seen.Len(); live > stats.PeakTriples {
				stats.PeakTriples = live
			}
		}
	}
	push(v0, dfa.Start, e.internEmpty())

	// M_ds, computed lazily per (edge label, state) pair: the matching
	// transitions of s against that label. Storing it off the label rather
	// than the edge is equivalent (match depends only on the label) and
	// smaller.
	var mds [][][]dsEntry // [labelID][state] -> entries
	var mdsBytes int64
	if opts.Algo == AlgoPrecomp {
		mds = make([][][]dsEntry, g.NumLabels())
		mdsBytes = int64(g.NumLabels()) * 24
	}
	lookupDS := func(elID int32, s int32) []dsEntry {
		row := mds[elID]
		if row == nil {
			row = make([][]dsEntry, states)
			mds[elID] = row
			mdsBytes += int64(states) * 24
		}
		if row[s] == nil {
			entries := []dsEntry{}
			for i, tr := range dfa.Trans[s] {
				tlID := e.tlIDs[s][i]
				var ti int32
				if e.ex != nil {
					ti = e.ex.ti(s, i)
					e.ex.setCur(ti, elID)
				}
				c := e.possiblyMatches(tr.Label, tlID, elID)
				if c == codeFailed {
					continue
				}
				entries = append(entries, dsEntry{s1: tr.To, code: c, tl: tr.Label, ti: ti})
				mdsBytes += 32
			}
			row[s] = entries
		}
		return row[s]
	}

	// T: 0 undefined, 1 all-final so far, 2 some non-final.
	T := make([]int8, g.NumVertices())
	U := make([]subst.Subst, g.NumVertices())
	badU := make([]bool, g.NumVertices())

	var detErr error
	pops := 0
	for len(work) > 0 && detErr == nil {
		if opts.cxl.state() != cxlRunning {
			stats.ReachSize = seen.Len()
			stats.Substs = e.table.Len()
			return end(q, g, opts, stats, nil, e.ex, true)
		}
		t := work[len(work)-1]
		work = work[:len(work)-1]
		if e.ex != nil {
			e.ex.visit(t.s)
		}
		if pops++; pops&sampleMask == 0 && opts.Progress != nil {
			e.progress(pops, len(work), seen)
		}

		// Successor generation with the determinism check.
		if t.s == badstate {
			// Rule (iv) with no transitions: badstate propagates.
			for _, ge := range g.Out(t.v) {
				push(ge.To, badstate, badSubstKey)
			}
		} else {
			th := e.table.Get(t.th)
			for _, ge := range g.Out(t.v) {
				matched := false
				var curTarget, mpState, mpKey int32
				emit := func(th2 subst.Subst) bool {
					key := e.table.Key(th2)
					if !matched {
						matched = true
						mpState, mpKey = curTarget, key
						push(ge.To, mpState, key)
						return true
					}
					if curTarget != mpState || key != mpKey {
						detErr = ErrNondeterministic
						return false
					}
					return true
				}
				ok := true
				if opts.Algo == AlgoPrecomp {
					for _, de := range lookupDS(ge.LabelID, t.s) {
						curTarget = de.s1
						if e.ex != nil {
							e.ex.setCur(de.ti, ge.LabelID)
						}
						if de.code != codePossible {
							ok = e.applyMatch(de.code, th, emit)
						} else {
							ok = e.forEachGeneric(de.tl, ge.LabelID, th, emit)
						}
						if !ok {
							break
						}
					}
				} else {
					for i, tr := range dfa.Trans[t.s] {
						tlID := e.tlIDs[t.s][i]
						curTarget = tr.To
						if e.ex != nil {
							e.ex.setCur(e.ex.ti(t.s, i), ge.LabelID)
						}
						ok = e.forEachMatch(tr.Label, tlID, ge.LabelID, th, emit)
						if !ok {
							break
						}
					}
				}
				if !ok {
					break
				}
				if !matched {
					// Rules (iii)/(iv): no transition matches this edge.
					push(ge.To, badstate, badSubstKey)
				}
			}
		}
		if detErr != nil {
			break
		}

		// Result bookkeeping: the T and U updates of pseudo-code (6).
		v := t.v
		sFinal := t.s != badstate && dfa.Final[t.s]
		if T[v] == 0 || T[v] == 1 {
			if sFinal {
				T[v] = 1
			} else {
				T[v] = 2
			}
		}
		if T[v] == 1 {
			th := e.table.Get(t.th)
			if badU[v] {
				// stays bad
			} else if U[v] == nil {
				U[v] = th.Clone()
			} else {
				e.stats.MergeCalls++
				if !subst.MergeInto(U[v], U[v], th) {
					badU[v] = true
					U[v] = nil
				}
			}
		} else {
			badU[v] = true
			U[v] = nil
		}
	}
	if detErr != nil {
		stats.DeterminismOK = false
		return nil, detErr
	}

	var pairs []Pair
	for v := 0; v < g.NumVertices(); v++ {
		if T[v] == 1 && !badU[v] && U[v] != nil {
			pairs = append(pairs, Pair{Vertex: int32(v), Subst: U[v]})
		}
	}
	stats.ReachSize = seen.Len()
	stats.Substs = e.table.Len()
	stats.Bytes = seen.Bytes() + e.table.Bytes() + e.memoBytes + mdsBytes +
		int64(g.NumVertices())*(1+24+1)
	if opts.Progress != nil {
		e.progress(pops, 0, seen)
	}
	return end(q, g, opts, stats, pairs, e.ex, false)
}

package core

import (
	"rpq/internal/automata"
	"rpq/internal/graph"
	"rpq/internal/label"
	"rpq/internal/subst"
)

// groundUniv answers the universal query for one full substitution th: the
// instantiated pattern is exactly determinized over the graph's edge-label
// alphabet (g.Labels(), taken once per solve by the caller), so determinism holds by construction and a single product
// reachability pass suffices. Returns the vertices v (reachable from v0)
// such that every path from v0 to v is accepted.
//
// When ex is non-nil, each ground-DFA pop is attributed back to the NFA
// states of its subset (d.Sets), so the enumeration/hybrid profiles live in
// the same state space as the other variants; per-transition counters stay
// zero (the match work happened inside DeterminizeGround), and the label
// histogram records one attempt per scanned edge with a hit when the step
// stays out of the badstate.
func groundUniv(g *graph.Graph, alphabet []label.Ground, v0 int32, q *Query, th subst.Subst, stats *Stats, ex *explainCollector, cxl *canceler) []int32 {
	d := automata.DeterminizeGround(q.NFA, alphabet, th)
	states := int32(d.NumStates)
	bad := states
	stride := int(states) + 1
	if ex != nil {
		ex.groundRuns++
	}

	// allFinal: 0 unseen, 1 every visited automaton state final, 2 broken.
	allFinal := make([]int8, g.NumVertices())
	seen := make([]bool, g.NumVertices()*stride)
	wl := []int64{packPair(v0, d.Start, stride)}
	seen[wl[0]] = true
	stats.WorklistInserts++
	pops := 0
	for len(wl) > 0 {
		// Interrupted passes return nil; the enumeration callers observe the
		// flag themselves and stop with a partial result.
		if pops++; pops&sampleMask == 0 && cxl.state() != cxlRunning {
			return nil
		}
		pair := wl[len(wl)-1]
		wl = wl[:len(wl)-1]
		v, qs := unpackPair(pair, stride)
		if ex != nil {
			ex.groundPop()
			if qs == bad {
				ex.visit(int32(q.NFA.NumStates))
			} else {
				for _, ns := range d.Sets[qs] {
					ex.visit(ns)
				}
			}
		}
		fin := qs != bad && d.Final[qs]
		switch {
		case allFinal[v] == 0:
			if fin {
				allFinal[v] = 1
			} else {
				allFinal[v] = 2
			}
		case allFinal[v] == 1 && !fin:
			allFinal[v] = 2
		}
		for _, ge := range g.Out(v) {
			next := bad
			if qs != bad {
				if t := d.Step(qs, ge.LabelID); t >= 0 {
					next = t
				}
				if ex != nil {
					ex.setCur(-1, ge.LabelID)
					ex.attempt(next != bad)
				}
			}
			np := packPair(ge.To, next, stride)
			if !seen[np] {
				seen[np] = true
				wl = append(wl, np)
				stats.WorklistInserts++
			}
		}
	}
	if b := int64(len(seen)) + int64(d.NumStates*d.NumLetters)*4; b > stats.Bytes {
		stats.Bytes = b
	}
	var out []int32
	for v := 0; v < g.NumVertices(); v++ {
		if allFinal[v] == 1 {
			out = append(out, int32(v))
		}
	}
	return out
}

// univEnum is the enumeration algorithm of Section 4: a parameter-free
// universal query per full substitution over the parameter domains. Time
// O(|G| × maxTrans × substs); space as small as a single ground run.
func univEnum(g *graph.Graph, v0 int32, q *Query, opts Options) (*Result, error) {
	var stats Stats
	doms := domainsPhase(q, g, opts.Domains, &stats)
	var ex *explainCollector
	if opts.Explain {
		ex = newExplainCollector(q.NFA, g.NumLabels())
	}
	var pairs []Pair
	enumerated := 0
	alphabet := g.Labels()
	tEnum := phaseStart()
	subst.ForEachFull(q.Pars(), doms, func(th subst.Subst) bool {
		if opts.cxl.state() != cxlRunning {
			return false
		}
		enumerated++
		enumProgress(opts, &stats, 0, enumerated, stats.Bytes)
		for _, v := range groundUniv(g, alphabet, v0, q, th, &stats, ex, opts.cxl) {
			pairs = append(pairs, Pair{Vertex: v, Subst: th.Clone()})
		}
		return true
	})
	stats.Phases.Enumerate.Wall = phaseWall(tEnum)
	stats.ReachSize = stats.WorklistInserts
	stats.EnumSubsts = enumerated
	return end(q, g, opts, stats, pairs, ex, opts.cxl.state() != cxlRunning)
}

// univHybrid refines enumeration (Section 4): an existential query first
// computes the substitutions involved in matching on some path; only full
// extensions of those are enumerated for the ground universal passes. The
// idea is also used by de Moor et al.
func univHybrid(g *graph.Graph, v0 int32, q *Query, opts Options) (*Result, error) {
	exOpts := opts
	exOpts.Algo = AlgoMemo
	ex, err := Exist(g, v0, q, exOpts)
	if err != nil {
		return nil, err
	}
	var stats Stats
	stats.WorklistInserts = ex.Stats.WorklistInserts
	stats.MatchCalls = ex.Stats.MatchCalls
	stats.MatchCacheHits = ex.Stats.MatchCacheHits
	stats.MatchCacheMisses = ex.Stats.MatchCacheMisses
	stats.MergeCalls = ex.Stats.MergeCalls
	stats.Bytes = ex.Stats.Bytes

	doms := domainsPhase(q, g, opts.Domains, &stats)
	// Deduplicate candidate full substitutions across all existential
	// result substitutions.
	cand, err := subst.NewTable(subst.Hash, q.Pars(), g.U.NumSymbols())
	if err != nil {
		return nil, err
	}
	var order []int32
	seenPartial := map[string]bool{}
	for _, p := range ex.Pairs {
		if opts.cxl.state() != cxlRunning {
			break
		}
		pk := p.Subst.String()
		if seenPartial[pk] {
			continue
		}
		seenPartial[pk] = true
		subst.ForEachExtension(p.Subst, subst.AllParams(q.Pars()), doms, func(th subst.Subst) bool {
			if _, ok := cand.Lookup(th); !ok {
				order = append(order, cand.Key(th))
			}
			return true
		})
	}
	// gc profiles the ground passes and absorbs the inner existential
	// profile into its report.
	var gc *explainCollector
	if opts.Explain {
		gc = newExplainCollector(q.NFA, g.NumLabels())
		gc.inner = ex.Explain
	}
	var pairs []Pair
	ground := 0
	alphabet := g.Labels()
	tEnum := phaseStart()
	for i, key := range order {
		if opts.cxl.state() != cxlRunning {
			break
		}
		ground = i + 1
		enumProgress(opts, &stats, ex.Stats.Substs+cand.Len(), ground, stats.Bytes)
		th := cand.Get(key)
		for _, v := range groundUniv(g, alphabet, v0, q, th, &stats, gc, opts.cxl) {
			pairs = append(pairs, Pair{Vertex: v, Subst: th.Clone()})
		}
	}
	stats.Phases.Enumerate.Wall = phaseWall(tEnum)
	stats.ReachSize = stats.WorklistInserts
	stats.EnumSubsts = ground
	interrupted := opts.cxl.state() != cxlRunning
	if !interrupted {
		stats.Bytes += cand.Bytes()
	}
	return end(q, g, opts, stats, pairs, gc, interrupted)
}

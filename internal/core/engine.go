package core

import (
	"rpq/internal/automata"
	"rpq/internal/graph"
	"rpq/internal/label"
	"rpq/internal/subst"
)

// engine bundles the state shared by the worklist solvers: the graph, the
// automaton, substitution interning, parameter domains, statistics, and the
// (optional) memoized match layer.
type engine struct {
	g     *graph.Graph
	q     *Query
	auto  *automata.NFA
	opts  Options
	doms  subst.Domains
	table subst.Table
	stats *Stats
	in    instr

	// ex collects the per-state/per-transition/per-label execution profile
	// when Options.Explain is set; nil otherwise, so every counting site
	// pays one nil check when disabled.
	ex *explainCollector

	// memo is the substitution map M_s of Section 3: match results cached
	// by (edge label id, transition label id). Entry nil = not yet
	// computed; entries are shared *label.Match values.
	memo      [][]*label.Match
	memoBytes int64

	// scratch receives the match on the unmemoized path (AlgoBasic); it is
	// overwritten by the next match call, so callers must not retain it.
	scratch label.Match

	// tlIDs[s][i] is the dense label id of transition i of state s, resolved
	// once per run rather than by a string-map lookup per attempt.
	tlIDs [][]int32

	// buf1 is the merge scratch buffer reused across the hot loop.
	buf1 subst.Subst
}

// transLabelIDs resolves the label id of every transition of a.
func transLabelIDs(a *automata.NFA) [][]int32 {
	ids := make([][]int32, len(a.Trans))
	for s, ts := range a.Trans {
		ids[s] = make([]int32, len(ts))
		for i, tr := range ts {
			ids[s][i] = a.LabelID[tr.Label.Key()]
		}
	}
	return ids
}

func newEngine(g *graph.Graph, q *Query, auto *automata.NFA, opts Options, stats *Stats) (*engine, error) {
	in := newInstr(opts)
	tDoms := in.phaseBegin("domains")
	doms := ComputeDomains(q, g, opts.Domains)
	stats.Phases.Domains.Wall = in.phaseEnd("domains", tDoms)
	table, err := subst.NewTable(opts.Table, q.Pars(), g.U.NumSymbols())
	if err != nil {
		return nil, err
	}
	e := &engine{
		g:     g,
		q:     q,
		auto:  auto,
		opts:  opts,
		doms:  doms,
		table: table,
		stats: stats,
		in:    in,
		tlIDs: transLabelIDs(auto),
		buf1:  subst.New(q.Pars()),
	}
	if opts.Explain {
		e.ex = newExplainCollector(auto, g.NumLabels())
	}
	traceHook := e.in.growthHook()
	var exHook func(int, int64)
	if e.ex != nil {
		exHook = e.ex.tableGrowth()
	}
	switch {
	case traceHook != nil && exHook != nil:
		e.table.SetOnGrow(func(n int, b int64) { traceHook(n, b); exHook(n, b) })
	case traceHook != nil:
		e.table.SetOnGrow(traceHook)
	case exHook != nil:
		e.table.SetOnGrow(exHook)
	}
	// AlgoPrecomp must memoize: its M_ts/M_ds tables retain the matches
	// (see possiblyMatches).
	if opts.Algo == AlgoMemo || opts.Algo == AlgoPrecomp {
		e.memo = make([][]*label.Match, g.NumLabels())
		e.memoBytes = int64(g.NumLabels()) * 24
	}
	return e, nil
}

// progress delivers one live snapshot of a worklist solve to
// Options.Progress: every sampleMask+1 pops and once when the worklist
// drains. Callers check that Progress is set.
func (e *engine) progress(pops, depth int, seen tripleSet) {
	e.opts.Progress(Progress{Phase: "solve", Pops: int64(pops), WorklistDepth: int64(depth),
		Reach: int64(seen.Len()), Substs: int64(e.table.Len()),
		Bytes: seen.Bytes() + e.table.Bytes() + e.memoBytes})
}

// match computes (or recalls) the agree/disagree match of edge label el
// (with dense id elID) against transition label tl (with dense id tlID in
// the automaton's label space). Returns nil when the labels cannot match
// under any substitution. Without the memo layer the result is e.scratch,
// valid only until the next call.
func (e *engine) match(tl *label.CTerm, tlID int32, el *label.CTerm, elID int32) *label.Match {
	var m *label.Match
	if e.memo != nil {
		row := e.memo[elID]
		if row == nil {
			row = make([]*label.Match, len(e.auto.Labels))
			e.memo[elID] = row
			e.memoBytes += int64(len(row)) * 8
		}
		if m = row[tlID]; m != nil {
			e.stats.MatchCacheHits++
		} else {
			e.stats.MatchCalls++
			e.stats.MatchCacheMisses++
			m = new(label.Match)
			label.MatchADInto(m, tl, el)
			row[tlID] = m
			e.memoBytes += 48
		}
	} else {
		e.stats.MatchCalls++
		m = &e.scratch
		label.MatchADInto(m, tl, el)
	}
	if e.ex != nil {
		e.ex.attempt(m.OK)
	}
	if !m.OK {
		return nil
	}
	return m
}

// forEachMatch enumerates the substitutions θ2 under which edge label el
// matches transition label tl extending θ (the inner body of pseudo-code
// (2) with the Section 3 negation handling folded in). emit's argument is a
// reused buffer; it must be interned or cloned to be retained. emit returns
// false to abort (used by the universal determinism check); forEachMatch
// reports whether it ran to completion.
func (e *engine) forEachMatch(tl *label.CTerm, tlID int32, el *label.CTerm, elID int32, th subst.Subst, emit func(subst.Subst) bool) bool {
	if !tl.ADCompatible() {
		// Generic fallback (Section 3): enumerate extensions of θ covering
		// the label's parameters and test the full match relation.
		return subst.ForEachExtension(th, tl.Params(), e.doms, func(th2 subst.Subst) bool {
			e.stats.MatchCalls++
			ok := label.MatchGround(tl, el, th2)
			if e.ex != nil {
				e.ex.attempt(ok)
			}
			if ok {
				if e.ex != nil {
					e.ex.extend()
				}
				return emit(th2)
			}
			return true
		})
	}
	m := e.match(tl, tlID, el, elID)
	if m == nil {
		return true
	}
	return e.applyMatch(m, th, emit)
}

// applyMatch folds a cached agree/disagree match result into θ, emitting
// each resulting substitution: merge with agree, then — if a negation is
// present — enumerate extensions covering the disagree parameters and keep
// those contradicting every disagree set (merge(θ2, disagree) = badsubst in
// the paper's formulation).
func (e *engine) applyMatch(m *label.Match, th subst.Subst, emit func(subst.Subst) bool) bool {
	e.stats.MergeCalls++
	if !subst.MergeBindings(e.buf1, th, m.Agree) {
		return true
	}
	if len(m.Disagrees) == 0 {
		if e.ex != nil {
			e.ex.extend()
		}
		return emit(e.buf1)
	}
	return subst.ForEachExtension(e.buf1, m.DisagreeParams(), e.doms, func(th2 subst.Subst) bool {
		for _, d := range m.Disagrees {
			e.stats.MergeCalls++
			if !subst.Contradicts(th2, d) {
				return true
			}
		}
		if e.ex != nil {
			e.ex.extend()
		}
		return emit(th2)
	})
}

// forEachGeneric is the generic (non-AD) matching path, exposed for the
// precomputation solvers, which store generic entries unresolved.
func (e *engine) forEachGeneric(tl, el *label.CTerm, th subst.Subst, emit func(subst.Subst) bool) bool {
	return subst.ForEachExtension(th, tl.Params(), e.doms, func(th2 subst.Subst) bool {
		e.stats.MatchCalls++
		ok := label.MatchGround(tl, el, th2)
		if e.ex != nil {
			e.ex.attempt(ok)
		}
		if ok {
			if e.ex != nil {
				e.ex.extend()
			}
			return emit(th2)
		}
		return true
	})
}

// possiblyMatches reports whether any substitution can make el match tl;
// used by the M_ts/M_ds precomputation, which records matches independent of
// the substitutions flowing through them. The precomputation retains the
// result, so it requires the memo layer (AlgoPrecomp always memoizes): the
// unmemoized match is scratch storage that the next call overwrites.
func (e *engine) possiblyMatches(tl *label.CTerm, tlID int32, el *label.CTerm, elID int32) *label.Match {
	if !tl.ADCompatible() {
		// Conservative for the generic fragment: try to find one witness.
		found := false
		empty := subst.New(e.q.Pars())
		subst.ForEachExtension(empty, tl.Params(), e.doms, func(th subst.Subst) bool {
			e.stats.MatchCalls++
			ok := label.MatchGround(tl, el, th)
			if e.ex != nil {
				e.ex.attempt(ok)
			}
			if ok {
				found = true
				return false
			}
			return true
		})
		if !found {
			return nil
		}
		// Marker match: callers re-run forEachMatch for generic labels.
		return &label.Match{OK: true}
	}
	if e.memo == nil {
		panic("core: possiblyMatches retains its match and needs the memo layer")
	}
	return e.match(tl, tlID, el, elID)
}

// internEmpty interns the empty substitution and returns its key.
func (e *engine) internEmpty() int32 {
	return e.table.Key(subst.New(e.q.Pars()))
}

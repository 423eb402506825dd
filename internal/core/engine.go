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

	// ex collects the per-state/per-transition/per-label execution profile
	// when Options.Explain is set; nil otherwise, so every counting site
	// pays one nil check when disabled.
	ex *explainCollector

	// memo is the substitution map M_s of Section 3: one match code per
	// (edge label id, transition label id) slot; nil without the memo
	// layer.
	memo      *matchMemo
	memoBytes int64

	// slab holds the agree pairs, disagree sets and disagree parameters of
	// every successful match that is not unconditional, one record per
	// code (see encode). Without the memo layer it holds only the last
	// match's record, overwritten by the next match call.
	slab []int32
	// work receives label.MatchADInto's result before encode copies it
	// into the slab; it is never retained.
	work label.Match

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
	doms := domainsPhase(q, g, opts.Domains, stats)
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
		tlIDs: transLabelIDs(auto),
		buf1:  subst.New(q.Pars()),
		slab:  make([]int32, slabHeader),
	}
	if opts.Explain {
		e.ex = newExplainCollector(auto, g.NumLabels())
	}
	// AlgoPrecomp must memoize: its M_ts/M_ds tables retain the matches
	// (see possiblyMatches).
	if opts.Algo == AlgoMemo || opts.Algo == AlgoPrecomp {
		e.memo = newMatchMemo(g.NumLabels(), len(auto.Labels))
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

// Match codes. A memo slot, an M_ts/M_ds entry and the result of match
// hold one: codeFailed, codeUncond, or the slab offset (≥ slabHeader) of
// the match's record.
const (
	codeUnknown int32 = 0 // memo slot not yet computed
	codeFailed  int32 = 1 // no substitution makes the labels match
	codeUncond  int32 = 2 // matches under every substitution
	// codePossible is possiblyMatches' answer for a generic label that
	// some substitution matches; M_ts/M_ds entries holding it are
	// re-matched per substitution.
	codePossible int32 = 0
)

// slabHeader is the slab's reserved prefix: offsets 0 and 1 are never
// records, and offsets 2–4 hold the empty record that codeUncond decodes
// to, so applyMatch reads every code the same way.
const slabHeader = 5

// encode appends m's record to the slab and returns its code. A record at
// offset o is: o: agree pairs na, o+1: disagree sets nd, o+2: disagree
// parameters np, then na (parameter, symbol) pairs, the np sorted disagree
// parameters, and nd sets, each its pair count followed by its pairs.
func (e *engine) encode(m *label.Match) int32 {
	if !m.OK {
		return codeFailed
	}
	if len(m.Agree) == 0 && len(m.Disagrees) == 0 {
		return codeUncond
	}
	o := int32(len(e.slab))
	dp := m.DisagreeParams()
	e.slab = append(e.slab, int32(len(m.Agree)), int32(len(m.Disagrees)), int32(len(dp)))
	for _, b := range m.Agree {
		e.slab = append(e.slab, b.Param, b.Sym)
	}
	e.slab = append(e.slab, dp...)
	for _, d := range m.Disagrees {
		e.slab = append(e.slab, int32(len(d)))
		for _, b := range d {
			e.slab = append(e.slab, b.Param, b.Sym)
		}
	}
	return o
}

// matchMemo locates the code row of each edge label: rows are handed out
// on first touch from fixed-size chunks that are never copied, so memory
// tracks the labels a solve reaches, and no chunk is larger than the full
// table.
type matchMemo struct {
	rows     []int32   // per edge label id: 1 + its row number, 0 = none yet
	chunks   [][]int32 // rows 1<<shift apart, width codes each
	width    int       // codes per row: the automaton's transition labels
	shift    uint
	chunkLen int   // codes per chunk: 1<<shift rows, or every label's if fewer
	n        int32 // rows handed out
}

// memoChunkCodes bounds the codes in one chunk (16 KB) unless a single row
// is larger.
const memoChunkCodes = 4096

func newMatchMemo(labels, width int) *matchMemo {
	m := &matchMemo{rows: make([]int32, labels), width: width}
	for 2*max(width, 1)<<m.shift <= memoChunkCodes {
		m.shift++
	}
	m.chunkLen = min(1<<m.shift, labels) * width
	return m
}

// row returns the codes of edge label el, reporting whether this call
// created the row.
func (m *matchMemo) row(el int32) ([]int32, bool) {
	r, created := m.rows[el], false
	if r == 0 {
		if int(m.n>>m.shift) == len(m.chunks) {
			m.chunks = append(m.chunks, make([]int32, m.chunkLen))
		}
		m.n++
		m.rows[el] = m.n
		r, created = m.n, true
	}
	r--
	lo := int(r&(1<<m.shift-1)) * m.width
	return m.chunks[r>>m.shift][lo : lo+m.width : lo+m.width], created
}

// match computes (or recalls) the agree/disagree match of the edge label
// with id elID against transition label tl (with dense id tlID in the
// automaton's label space) and returns its code, codeFailed when the
// labels cannot match under any substitution. Without the memo layer the
// record is valid only until the next call.
func (e *engine) match(tl *label.CTerm, tlID int32, elID int32) int32 {
	var c int32
	if e.memo != nil {
		row, created := e.memo.row(elID)
		if created {
			e.memoBytes += int64(len(row)) * 8
		}
		if c = row[tlID]; c != codeUnknown {
			e.stats.MatchCacheHits++
		} else {
			e.stats.MatchCalls++
			e.stats.MatchCacheMisses++
			label.MatchADInto(&e.work, tl, e.g.Label(elID))
			c = e.encode(&e.work)
			row[tlID] = c
			e.memoBytes += 48
		}
	} else {
		e.stats.MatchCalls++
		e.slab = e.slab[:slabHeader]
		label.MatchADInto(&e.work, tl, e.g.Label(elID))
		c = e.encode(&e.work)
	}
	if e.ex != nil {
		e.ex.attempt(c != codeFailed)
	}
	return c
}

// forEachMatch enumerates the substitutions θ2 under which edge label elID
// matches transition label tl extending θ (the inner body of pseudo-code
// (2) with the Section 3 negation handling folded in). emit's argument is a
// reused buffer; it must be interned or cloned to be retained. emit returns
// false to abort (used by the universal determinism check); forEachMatch
// reports whether it ran to completion.
func (e *engine) forEachMatch(tl *label.CTerm, tlID int32, elID int32, th subst.Subst, emit func(subst.Subst) bool) bool {
	if !tl.ADCompatible() {
		// Generic fallback (Section 3): enumerate extensions of θ covering
		// the label's parameters and test the full match relation.
		return e.forEachGeneric(tl, elID, th, emit)
	}
	c := e.match(tl, tlID, elID)
	if c == codeFailed {
		return true
	}
	return e.applyMatch(c, th, emit)
}

// applyMatch folds the match record with code c into θ, emitting each
// resulting substitution: merge with agree, then — if a negation is
// present — enumerate extensions covering the disagree parameters and keep
// those contradicting every disagree set (merge(θ2, disagree) = badsubst in
// the paper's formulation). The record is read in place.
func (e *engine) applyMatch(c int32, th subst.Subst, emit func(subst.Subst) bool) bool {
	rec := e.slab[c:]
	na, nd, np := 2*rec[0], rec[1], rec[2]
	e.stats.MergeCalls++
	if !subst.MergeBindings(e.buf1, th, rec[3:3+na]) {
		return true
	}
	if nd == 0 {
		if e.ex != nil {
			e.ex.extend()
		}
		return emit(e.buf1)
	}
	dis := rec[3+na+np:]
	return subst.ForEachExtension(e.buf1, rec[3+na:3+na+np], e.doms, func(th2 subst.Subst) bool {
		d := dis
		for range nd {
			n := 2 * d[0]
			e.stats.MergeCalls++
			if !subst.Contradicts(th2, d[1:1+n]) {
				return true
			}
			d = d[1+n:]
		}
		if e.ex != nil {
			e.ex.extend()
		}
		return emit(th2)
	})
}

// forEachGeneric is the generic (non-AD) matching path, also taken by the
// precomputation solvers, which store generic entries unresolved.
func (e *engine) forEachGeneric(tl *label.CTerm, elID int32, th subst.Subst, emit func(subst.Subst) bool) bool {
	el := e.g.Label(elID)
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

// possiblyMatches reports whether any substitution can make edge label elID
// match tl; used by the M_ts/M_ds precomputation, which records matches
// independent of the substitutions flowing through them. It returns
// codeFailed when none can, codePossible for a matching generic label, and
// otherwise the match's code. The precomputation retains the code, so it requires the memo layer
// (AlgoPrecomp always memoizes): an unmemoized record is overwritten by the
// next match call.
func (e *engine) possiblyMatches(tl *label.CTerm, tlID int32, elID int32) int32 {
	if !tl.ADCompatible() {
		// Conservative for the generic fragment: try to find one witness.
		el := e.g.Label(elID)
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
			return codeFailed
		}
		return codePossible
	}
	if e.memo == nil {
		panic("core: possiblyMatches retains its match and needs the memo layer")
	}
	return e.match(tl, tlID, elID)
}

// internEmpty interns the empty substitution and returns its key.
func (e *engine) internEmpty() int32 {
	return e.table.Key(subst.New(e.q.Pars()))
}

package core

import (
	"context"
	"errors"
	"fmt"

	"rpq/internal/automata"
	"rpq/internal/graph"
	"rpq/internal/label"
	"rpq/internal/subst"
)

// packPair packs a ⟨v, s⟩ product pair into an int64. The solvers
// previously used int32 packing (v*states+s), which silently overflows once
// |V|·|S| exceeds 2³¹ — exactly the inputs the dense base arrays are sized
// for, so the constructors guard that bound (checkDenseBase) and all pair
// arithmetic is 64-bit.
func packPair(v, s int32, states int) int64 {
	return int64(v)*int64(states) + int64(s)
}

// unpackPair inverts packPair.
func unpackPair(p int64, states int) (v, s int32) {
	return int32(p / int64(states)), int32(p % int64(states))
}

// Exist solves the existential query of Section 3: compute all pairs ⟨v, θ⟩
// such that some path from v0 to v matches some sentence accepted by the
// pattern under θ. Substitutions in the result are minimal; every extension
// of a result substitution also witnesses the pair.
//
// One deliberate refinement over the paper's pseudo-code: the worklist is
// seeded with ⟨v0, s0, {}⟩ rather than unrolling rule (i), which both
// simplifies the loop and includes the empty path (so ⟨v0, {}⟩ is an answer
// when the pattern accepts ε).
func Exist(g *graph.Graph, v0 int32, q *Query, opts Options) (*Result, error) {
	return ExistContext(context.Background(), g, v0, q, opts)
}

// ExistContext is Exist bounded by a context (and Options.Deadline): when
// either fires, the worklist loops stop at the next check and the run
// returns an InterruptError wrapping ErrCanceled or ErrDeadline, carrying
// the statistics — and, under Options.Explain, the profile — accumulated so
// far.
func ExistContext(ctx context.Context, g *graph.Graph, v0 int32, q *Query, opts Options) (*Result, error) {
	if int(v0) >= g.NumVertices() || v0 < 0 {
		return nil, fmt.Errorf("core: start vertex %d out of range", v0)
	}
	switch opts.Algo {
	case AlgoBasic, AlgoMemo, AlgoPrecomp, AlgoEnum:
	case AlgoHybrid:
		return nil, fmt.Errorf("core: the hybrid algorithm applies to universal queries only")
	default:
		return nil, fmt.Errorf("core: unknown algorithm %v", opts.Algo)
	}
	if opts.cxl == nil {
		// univHybrid's inner existential pass arrives with the watcher
		// already armed; arm one here otherwise.
		if opts.Deadline > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, opts.Deadline)
			defer cancel()
		}
		cxl, release := newCanceler(ctx)
		defer release()
		opts.cxl = cxl
	}
	in := newInstr(opts)
	in.span("compile", q.CompileWall)
	a0 := in.allocSnapshot()
	t0 := in.phaseBegin("solve")
	var res *Result
	var err error
	if opts.Algo == AlgoEnum {
		res, err = existEnum(g, v0, q, opts)
	} else {
		res, err = existWorklist(g, v0, q, opts)
	}
	if err != nil {
		// Close the phase and flush buffered trace events so a failing run
		// still yields a complete, parseable trace. Interrupted runs get
		// their phase walls stamped into the partial stats.
		d := in.phaseEnd("solve", t0)
		var ie *InterruptError
		if errors.As(err, &ie) {
			ie.Stats.Phases.Solve.Wall = d
			ie.Stats.Phases.Compile.Wall = q.BuildWall()
		}
		in.flush()
		return nil, err
	}
	res.Stats.Phases.Solve.Wall = in.phaseEnd("solve", t0)
	if a1 := in.allocSnapshot(); a1 > a0 {
		res.Stats.Phases.Solve.AllocBytes = int64(a1 - a0)
	}
	res.Stats.Phases.Compile.Wall = q.BuildWall()
	in.finish(&res.Stats)
	return res, nil
}

// mtsEntry is one element of the target-and-substitution map M_ts: from the
// keyed ⟨v, s⟩ pair, a successful match leads to ⟨v1, s1⟩. AD-compatible
// labels carry their cached match; generic labels are stored unresolved and
// re-matched per substitution.
type mtsEntry struct {
	v1, s1 int32
	m      *label.Match // nil for generic labels
	tl     *label.CTerm
	el     *label.CTerm
	// ti/elID attribute the entry's solve-time work to the originating
	// transition and edge label in the explain profile; ti is meaningful
	// only when explaining.
	ti   int32
	elID int32
}

// buildMTS precomputes the target-and-substitution map M_ts (pseudo-code
// (3)): for every reachable ⟨v, s⟩ pair (packed v*states+s), the match
// results of its outgoing (edge, transition) combinations, ignoring
// substitution feasibility. Callers validate |V|·|S| against maxDenseBase
// first (existWorklist via newTripleSet).
func buildMTS(e *engine, v0 int32) ([][]mtsEntry, int64) {
	g, nfa := e.g, e.auto
	states := nfa.NumStates
	mts := make([][]mtsEntry, g.NumVertices()*states)
	mtsBytes := int64(len(mts)) * 24
	seenPair := make([]bool, g.NumVertices()*states)
	pw := []int64{packPair(v0, nfa.Start, states)}
	seenPair[pw[0]] = true
	for len(pw) > 0 {
		pair := pw[len(pw)-1]
		pw = pw[:len(pw)-1]
		v, s := unpackPair(pair, states)
		for _, ge := range g.Out(v) {
			for i, tr := range nfa.Trans[s] {
				tlID := e.tlIDs[s][i]
				var ti int32
				if e.ex != nil {
					ti = e.ex.ti(s, i)
					e.ex.setCur(ti, ge.LabelID)
				}
				m := e.possiblyMatches(tr.Label, tlID, ge.Label, ge.LabelID)
				if m == nil {
					continue
				}
				entry := mtsEntry{v1: ge.To, s1: tr.To, tl: tr.Label, el: ge.Label, ti: ti, elID: ge.LabelID}
				if tr.Label.ADCompatible() {
					entry.m = m
				}
				mts[pair] = append(mts[pair], entry)
				mtsBytes += 48
				np := packPair(ge.To, tr.To, states)
				if !seenPair[np] {
					seenPair[np] = true
					pw = append(pw, np)
				}
			}
		}
	}
	return mts, mtsBytes
}

// parentStep is the parent pointer of a discovered triple — the triple and
// edge that first produced it — recorded when Options.Witnesses is on.
type parentStep struct {
	prev triple
	lbl  *label.CTerm
	from int32
}

// attachWitnesses reconstructs one witnessing path per answer by following
// parent pointers from each origin triple back to the seed (which has no
// parent entry). Each step matched under a subset of the final
// substitution, and matching is closed under extension, so the whole path
// matches under the answer's substitution.
func attachWitnesses(pairs []Pair, origins []triple, parents map[triple]parentStep) {
	for i := range pairs {
		var rev []WitnessStep
		cur := origins[i]
		for {
			ps, ok := parents[cur]
			if !ok {
				break
			}
			rev = append(rev, WitnessStep{From: ps.from, Label: ps.lbl, To: cur.v})
			cur = ps.prev
		}
		w := make([]WitnessStep, len(rev))
		for j := range rev {
			w[j] = rev[len(rev)-1-j]
		}
		pairs[i].Witness = w
	}
}

func existWorklist(g *graph.Graph, v0 int32, q *Query, opts Options) (*Result, error) {
	if opts.Compact {
		g = g.CompactFor(q.NFA.Labels)
	}
	var stats Stats
	stats.DeterminismOK = true
	nfa := q.NFA
	states := nfa.NumStates
	e, err := newEngine(g, q, nfa, opts, &stats)
	if err != nil {
		return nil, err
	}

	seen, err := newTripleSet(opts.Table, g.NumVertices(), states)
	if err != nil {
		return nil, err
	}

	// SCC-ordered mode (Section 5.3): one worklist bucket per strongly
	// connected component, processed in topological order, with the reach
	// set storage of finished components released. Since every edge goes
	// from a component to a same-or-later one in topological numbering,
	// a released component can never be re-entered.
	var comp []int32
	var comps [][]int32
	buckets := make([][]triple, 1)
	bucketOf := func(v int32) int { return 0 }
	if opts.SCCOrder {
		comp, comps = g.SCCTopoOrder()
		buckets = make([][]triple, len(comps))
		bucketOf = func(v int32) int { return int(comp[v]) }
	}
	// Witness reconstruction: the parent pointer of each discovered triple.
	var parents map[triple]parentStep
	if opts.Witnesses {
		parents = map[triple]parentStep{}
	}
	live := 0
	perVertex := make([]int32, g.NumVertices())
	push := func(v, s int32, th subst.Subst, prev triple, lbl *label.CTerm, from int32) {
		key := e.table.Key(th)
		t := triple{v: v, s: s, th: key}
		if seen.Add(t) {
			buckets[bucketOf(v)] = append(buckets[bucketOf(v)], t)
			stats.WorklistInserts++
			live++
			perVertex[v]++
			if live > stats.PeakTriples {
				stats.PeakTriples = live
			}
			if parents != nil && lbl != nil {
				parents[t] = parentStep{prev: prev, lbl: lbl, from: from}
			}
		}
	}
	push(v0, nfa.Start, subst.New(q.Pars()), triple{}, nil, 0)

	// Precompute M_ts (pseudo-code (3)): reachable ⟨v, s⟩ pairs with their
	// match results, ignoring substitution feasibility.
	var mts [][]mtsEntry
	var mtsBytes int64
	if opts.Algo == AlgoPrecomp {
		mts, mtsBytes = buildMTS(e, v0)
	}

	// Result set keyed (v, θ-key); origins remembers each pair's triple for
	// witness reconstruction.
	resSeen := map[int64]bool{}
	var pairs []Pair
	var origins []triple
	record := func(t triple) {
		k := int64(t.v)<<32 | int64(uint32(t.th))
		if !resSeen[k] {
			resSeen[k] = true
			pairs = append(pairs, Pair{Vertex: t.v, Subst: e.table.Get(t.th).Clone()})
			origins = append(origins, t)
		}
	}

	// processTriple is the body of the main worklist loop, pseudo-code
	// (2)/(4): record final-state answers and expand successors.
	processTriple := func(t triple) {
		if e.ex != nil {
			e.ex.visit(t.s)
		}
		if nfa.Final[t.s] {
			record(t)
		}
		th := e.table.Get(t.th)
		if opts.Algo == AlgoPrecomp {
			for i := range mts[int(t.v)*states+int(t.s)] {
				entry := &mts[int(t.v)*states+int(t.s)][i]
				if e.ex != nil {
					e.ex.setCur(entry.ti, entry.elID)
				}
				emit := func(th2 subst.Subst) bool {
					push(entry.v1, entry.s1, th2, t, entry.el, t.v)
					return true
				}
				if entry.m != nil {
					e.applyMatch(entry.m, th, emit)
				} else {
					e.forEachGeneric(entry.tl, entry.el, th, emit)
				}
			}
			return
		}
		for _, ge := range g.Out(t.v) {
			for i, tr := range nfa.Trans[t.s] {
				tlID := e.tlIDs[t.s][i]
				to := tr.To
				if e.ex != nil {
					e.ex.setCur(e.ex.ti(t.s, i), ge.LabelID)
				}
				e.forEachMatch(tr.Label, tlID, ge.Label, ge.LabelID, th, func(th2 subst.Subst) bool {
					push(ge.To, to, th2, t, ge.Label, t.v)
					return true
				})
			}
		}
	}

	var maxBytes int64
	pops, nextHW := 0, 1
	for bi := range buckets {
		for len(buckets[bi]) > 0 {
			if e.opts.cxl.state() != cxlRunning {
				stats.ReachSize = seen.Len()
				stats.Substs = e.table.Len()
				stats.ResultPairs = len(pairs)
				var exRep *Explain
				if e.ex != nil {
					exRep = e.ex.report(q, g, opts.Algo, "nfa")
				}
				return nil, e.opts.cxl.interrupt(stats, exRep)
			}
			t := buckets[bi][len(buckets[bi])-1]
			buckets[bi] = buckets[bi][:len(buckets[bi])-1]
			processTriple(t)
			e.in.highWater(len(buckets[bi]), &nextHW)
			if e.ex != nil {
				e.ex.pop(len(buckets[bi]))
			}
			if pops++; pops&sampleMask == 0 && opts.Progress != nil {
				e.progress(pops, len(buckets[bi]), seen)
			}
		}
		if opts.SCCOrder {
			// The component is finished: release its reach-set storage.
			if b := seen.Bytes(); b > maxBytes {
				maxBytes = b
			}
			for _, v := range comps[bi] {
				seen.Release(v)
				live -= int(perVertex[v])
				perVertex[v] = 0
			}
		}
	}
	if b := seen.Bytes(); b > maxBytes {
		maxBytes = b
	}

	if parents != nil {
		attachWitnesses(pairs, origins, parents)
	}

	stats.ReachSize = seen.Len()
	stats.Substs = e.table.Len()
	stats.ResultPairs = len(pairs)
	stats.Bytes = maxBytes + e.table.Bytes() + e.memoBytes + mtsBytes +
		pairsBytes(len(pairs), q.Pars())
	if opts.Progress != nil {
		e.progress(pops, 0, seen)
	}
	sortPairs(pairs)
	res := &Result{Pairs: pairs, Stats: stats}
	if e.ex != nil {
		res.Explain = e.ex.report(q, g, opts.Algo, "nfa")
	}
	return res, nil
}

// enumState is per-goroutine scratch for the enumeration algorithm's ground
// product-reachability pass: an epoch-tagged seen array plus a reused
// worklist and label-instantiation buffer. The epoch tag makes the
// per-substitution reset O(1) — a slot is visited iff it carries the
// current epoch — instead of clearing all |V|·|S| entries per enumerated
// substitution.
type enumState struct {
	seen  []uint32
	epoch uint32
	wl    []int64
	inst  []*label.CTerm
	tlIDs [][]int32
}

// enumEagerClear restores the old O(|V|·|S|) per-substitution clear; it
// exists only so BenchmarkEnumReset can measure the epoch counter's win.
var enumEagerClear = false

func newEnumState(g *graph.Graph, nfa *automata.NFA) (*enumState, error) {
	if err := checkDenseBase(g.NumVertices(), nfa.NumStates); err != nil {
		return nil, err
	}
	return &enumState{
		seen:  make([]uint32, g.NumVertices()*nfa.NumStates),
		inst:  make([]*label.CTerm, len(nfa.Labels)),
		tlIDs: transLabelIDs(nfa),
	}, nil
}

// bytes models the scratch footprint for the Table 3 memory accounting.
func (es *enumState) bytes() int64 { return int64(len(es.seen)) * 4 }

// reset prepares the seen array for the next substitution.
func (es *enumState) reset() {
	if enumEagerClear {
		for i := range es.seen {
			es.seen[i] = 0
		}
		es.epoch = 1
		return
	}
	if es.epoch++; es.epoch == 0 {
		// The 32-bit epoch wrapped: clear once and restart.
		for i := range es.seen {
			es.seen[i] = 0
		}
		es.epoch = 1
	}
}

// run instantiates the transition labels under th and performs the ground
// product reachability from ⟨v0, start⟩, marking final-state vertices in
// resHere. It updates stats.WorklistInserts/MatchCalls/PeakTriples (all
// deterministic: the pass depends only on th). ex, when non-nil, receives
// the per-state/per-transition/per-label profile of the pass. cxl, when
// armed, is polled every sampleMask+1 pops; run reports whether it finished
// (false = interrupted, resHere incomplete).
func (es *enumState) run(g *graph.Graph, v0 int32, nfa *automata.NFA, th subst.Subst, resHere map[int32]bool, stats *Stats, ex *explainCollector, cxl *canceler) bool {
	for i, tl := range nfa.Labels {
		if tl.HasParams() {
			es.inst[i], _ = tl.Instantiate(th)
		} else {
			es.inst[i] = tl
		}
	}
	es.reset()
	states := nfa.NumStates
	es.wl = es.wl[:0]
	p0 := packPair(v0, nfa.Start, states)
	es.wl = append(es.wl, p0)
	es.seen[p0] = es.epoch
	stats.WorklistInserts++
	live := 1
	pops := 0
	for len(es.wl) > 0 {
		if pops++; pops&sampleMask == 0 && cxl.state() != cxlRunning {
			return false
		}
		pair := es.wl[len(es.wl)-1]
		es.wl = es.wl[:len(es.wl)-1]
		v, s := unpackPair(pair, states)
		if ex != nil {
			ex.visit(s)
			ex.pop(len(es.wl))
		}
		if nfa.Final[s] {
			resHere[v] = true
		}
		for _, ge := range g.Out(v) {
			for i, tr := range nfa.Trans[s] {
				stats.MatchCalls++
				ok := label.MatchGround(es.inst[es.tlIDs[s][i]], ge.Label, nil)
				if ex != nil {
					ex.setCur(ex.ti(s, i), ge.LabelID)
					ex.attempt(ok)
					if ok {
						ex.extend()
					}
				}
				if !ok {
					continue
				}
				np := packPair(ge.To, tr.To, states)
				if es.seen[np] != es.epoch {
					es.seen[np] = es.epoch
					es.wl = append(es.wl, np)
					stats.WorklistInserts++
					live++
				}
			}
		}
	}
	if live > stats.PeakTriples {
		stats.PeakTriples = live
	}
	return true
}

// existEnum is the enumeration algorithm: for every full substitution over
// the parameter domains, instantiate the pattern and run a parameter-free
// reachability product. Slower (work scales with |G| × substs) but with far
// smaller memory, per Section 4 ("Nondeterminism") and Table 3.
func existEnum(g *graph.Graph, v0 int32, q *Query, opts Options) (*Result, error) {
	if opts.Compact {
		g = g.CompactFor(q.NFA.Labels)
	}
	var stats Stats
	stats.DeterminismOK = true
	nfa := q.NFA
	in := newInstr(opts)
	tDoms := in.phaseBegin("domains")
	doms := ComputeDomains(q, g, opts.Domains)
	stats.Phases.Domains.Wall = in.phaseEnd("domains", tDoms)
	stats.EnumSubsts = doms.Count()

	es, err := newEnumState(g, nfa)
	if err != nil {
		return nil, err
	}
	var ex *explainCollector
	if opts.Explain {
		ex = newExplainCollector(nfa, g.NumLabels())
	}
	var pairs []Pair
	var maxBytes int64

	enumerated := 0
	interrupted := false
	tEnum := in.phaseBegin("enumerate")
	subst.ForEachFull(q.Pars(), doms, func(th subst.Subst) bool {
		if opts.cxl.state() != cxlRunning {
			interrupted = true
			return false
		}
		enumerated++
		enumProgress(opts, &stats, 0, enumerated, maxBytes)
		resHere := map[int32]bool{}
		if !es.run(g, v0, nfa, th, resHere, &stats, ex, opts.cxl) {
			interrupted = true
			return false
		}
		for v := range resHere {
			pairs = append(pairs, Pair{Vertex: v, Subst: th.Clone()})
		}
		if b := es.bytes() + int64(len(resHere))*16; b > maxBytes {
			maxBytes = b
		}
		return true
	})
	stats.Phases.Enumerate.Wall = in.phaseEnd("enumerate", tEnum)
	if interrupted {
		stats.ReachSize = stats.WorklistInserts
		stats.ResultPairs = len(pairs)
		stats.EnumSubsts = enumerated
		var exRep *Explain
		if ex != nil {
			ex.groundRuns = enumerated
			exRep = ex.report(q, g, opts.Algo, "nfa")
		}
		return nil, opts.cxl.interrupt(stats, exRep)
	}

	stats.ReachSize = stats.WorklistInserts
	stats.ResultPairs = len(pairs)
	stats.Bytes = maxBytes + pairsBytes(len(pairs), q.Pars())
	sortPairs(pairs)
	res := &Result{Pairs: pairs, Stats: stats}
	if ex != nil {
		ex.groundRuns = enumerated
		res.Explain = ex.report(q, g, opts.Algo, "nfa")
	}
	return res, nil
}

package core

import (
	"fmt"
	"sort"
	"strings"

	"rpq/internal/automata"
	"rpq/internal/graph"
)

// Explain is the per-query execution profile produced when Options.Explain
// is set: the compiled automaton annotated with per-state visit counts and
// per-transition match attempt/hit/extension counters, and a per-edge-label
// match histogram. It marshals to JSON; Format renders a text report and DOT
// a Graphviz rendering of the annotated automaton. The run's counters, phase
// walls and resource attribution live in Stats.
type Explain struct {
	// Algo is the algorithm variant that produced the profile.
	Algo string `json:"algo"`
	// Automaton says which automaton the state/transition profiles cover:
	// "nfa" for the existential solvers (and the enumeration/hybrid
	// universal passes, whose ground-DFA visits are attributed back to the
	// constituent NFA states), "dfa" for the direct universal solvers.
	Automaton string `json:"automaton"`
	// States holds one entry per automaton state, plus — for universal
	// worklist runs — the badstate pseudo-state (Bad true).
	States []StateProfile `json:"states"`
	// Transitions holds one entry per automaton transition, in state order.
	Transitions []TransProfile `json:"transitions"`
	// Labels is the per-graph-edge-label match histogram.
	Labels []LabelProfile `json:"labels"`
	// Totals aggregates the profile for consistency checks against Stats.
	Totals ExplainTotals `json:"totals"`
	// GroundRuns counts the per-substitution ground automaton passes of the
	// enumeration/hybrid algorithms.
	GroundRuns int `json:"ground_runs,omitempty"`
}

// StateProfile is one automaton state's profile.
type StateProfile struct {
	State int `json:"state"`
	// Visits counts worklist pops of triples at this state. For the
	// enumeration/hybrid universal algorithms a ground-DFA pop is attributed
	// to every NFA state of its subset, so the sum over states can exceed
	// WorklistInserts there.
	Visits int64 `json:"visits"`
	Start  bool  `json:"start,omitempty"`
	Final  bool  `json:"final,omitempty"`
	// Bad marks the universal badstate pseudo-state.
	Bad bool `json:"bad,omitempty"`
}

// TransProfile is one automaton transition's profile.
type TransProfile struct {
	From  int    `json:"from"`
	To    int    `json:"to"`
	Label string `json:"label"`
	// Attempts counts match attempts of this transition against graph edge
	// labels (cache hits included, so memoization does not change it).
	Attempts int64 `json:"attempts"`
	// Hits counts attempts that matched under some substitution.
	Hits int64 `json:"hits"`
	// Extensions counts the substitutions emitted through this transition
	// (before reach-set dedup).
	Extensions int64 `json:"extensions"`
}

// LabelProfile is the match histogram entry of one graph edge label.
type LabelProfile struct {
	Label    string `json:"label"`
	Attempts int64  `json:"attempts"`
	Hits     int64  `json:"hits"`
}

// ExplainTotals aggregates the profile. For every variant,
// Attempts == Stats.MatchCalls + Stats.MatchCacheHits; for the worklist and
// existential-enumeration algorithms, Visits == Stats.WorklistInserts (each
// inserted triple is popped exactly once), while the universal
// enumeration/hybrid ground passes report their pops in GroundPops and
// attribute Visits per subset state.
type ExplainTotals struct {
	Visits     int64 `json:"visits"`
	Attempts   int64 `json:"attempts"`
	Hits       int64 `json:"hits"`
	Extensions int64 `json:"extensions"`
	GroundPops int64 `json:"ground_pops,omitempty"`
}

// absorb adds the counters of another profile over the same automaton into
// e (state, transition, and label orders must match; o may lack the
// badstate entry). The hybrid algorithm uses it to fold its inner
// existential profile into the ground-pass profile.
func (e *Explain) absorb(o *Explain) {
	if o == nil {
		return
	}
	for i := range o.States {
		if i < len(e.States) && e.States[i].State == o.States[i].State {
			e.States[i].Visits += o.States[i].Visits
		}
	}
	for i := range o.Transitions {
		if i < len(e.Transitions) {
			e.Transitions[i].Attempts += o.Transitions[i].Attempts
			e.Transitions[i].Hits += o.Transitions[i].Hits
			e.Transitions[i].Extensions += o.Transitions[i].Extensions
		}
	}
	for i := range o.Labels {
		if i < len(e.Labels) {
			e.Labels[i].Attempts += o.Labels[i].Attempts
			e.Labels[i].Hits += o.Labels[i].Hits
		}
	}
	e.Totals.Visits += o.Totals.Visits
	e.Totals.Attempts += o.Totals.Attempts
	e.Totals.Hits += o.Totals.Hits
	e.Totals.Extensions += o.Totals.Extensions
	e.Totals.GroundPops += o.Totals.GroundPops
	e.GroundRuns += o.GroundRuns
}

// Consistent cross-checks the profile's totals against the run's Stats and
// returns a descriptive error on the first violated invariant:
//
//   - Attempts == MatchCalls + MatchCacheHits for every variant (every
//     counted match lookup is one attempt, memoized or not);
//   - Visits == WorklistInserts when no ground passes ran (each inserted
//     element is popped exactly once);
//   - with ground passes (universal enumeration/hybrid), GroundPops <=
//     WorklistInserts and Visits >= GroundPops (each pop is attributed to
//     every NFA state of its subset).
func (e *Explain) Consistent(s *Stats) error {
	if want := int64(s.MatchCalls) + int64(s.MatchCacheHits); e.Totals.Attempts != want {
		return fmt.Errorf("explain: attempts %d != match_calls+match_cache_hits %d",
			e.Totals.Attempts, want)
	}
	if e.Totals.Hits > e.Totals.Attempts {
		return fmt.Errorf("explain: hits %d > attempts %d", e.Totals.Hits, e.Totals.Attempts)
	}
	if e.Totals.GroundPops == 0 {
		if e.Totals.Visits != int64(s.WorklistInserts) {
			return fmt.Errorf("explain: visits %d != worklist_inserts %d",
				e.Totals.Visits, s.WorklistInserts)
		}
		return nil
	}
	if e.Totals.GroundPops > int64(s.WorklistInserts) {
		return fmt.Errorf("explain: ground_pops %d > worklist_inserts %d",
			e.Totals.GroundPops, s.WorklistInserts)
	}
	if e.Totals.Visits < e.Totals.GroundPops {
		return fmt.Errorf("explain: visits %d < ground_pops %d",
			e.Totals.Visits, e.Totals.GroundPops)
	}
	return nil
}

// TopStates returns the n most-visited states, most visited first (ties by
// state index).
func (e *Explain) TopStates(n int) []StateProfile {
	out := make([]StateProfile, len(e.States))
	copy(out, e.States)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Visits > out[j].Visits })
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// explainCollector accumulates the profile during a run. All counters are
// dense arrays indexed by state, flattened transition index (transBase[s]+i
// for the i-th transition of state s), or graph edge-label id, so the
// enabled cost per event is an array increment. A nil collector disables
// everything: every call site guards with a single nil check.
type explainCollector struct {
	auto      *automata.NFA
	transBase []int32

	visits     []int64 // per state; one extra slot for the universal badstate
	attempts   []int64 // per flattened transition
	hits       []int64
	extensions []int64

	labelAttempts []int64 // per graph edge-label id
	labelHits     []int64

	// curTrans/curLabel attribute the next attempt/hit/extension; curTrans
	// is -1 during precomputation probes that have no solve-time transition
	// (the label histogram still accrues).
	curTrans int32
	curLabel int32

	groundPops int64
	groundRuns int

	// inner is the hybrid algorithm's existential-pass profile (same NFA
	// state space), absorbed into the report.
	inner *Explain
}

func newExplainCollector(auto *automata.NFA, numLabels int) *explainCollector {
	base := make([]int32, auto.NumStates+1)
	total := int32(0)
	for s := 0; s < auto.NumStates; s++ {
		base[s] = total
		total += int32(len(auto.Trans[s]))
	}
	base[auto.NumStates] = total
	return &explainCollector{
		auto:          auto,
		transBase:     base,
		visits:        make([]int64, auto.NumStates+1),
		attempts:      make([]int64, total),
		hits:          make([]int64, total),
		extensions:    make([]int64, total),
		labelAttempts: make([]int64, numLabels),
		labelHits:     make([]int64, numLabels),
		curTrans:      -1,
	}
}

// visit records one worklist pop at state s (s == NumStates is the
// universal badstate).
func (c *explainCollector) visit(s int32) { c.visits[s]++ }

// setCur attributes subsequent attempt/hit/extension events to the
// flattened transition index ti (or -1 for precompute probes) matching
// against graph edge label elID.
func (c *explainCollector) setCur(ti, elID int32) {
	c.curTrans = ti
	c.curLabel = elID
}

// ti flattens (state, i-th transition of state).
func (c *explainCollector) ti(s int32, i int) int32 { return c.transBase[s] + int32(i) }

// attempt records one match attempt of the current transition; ok says it
// matched under some substitution.
func (c *explainCollector) attempt(ok bool) {
	c.labelAttempts[c.curLabel]++
	if ok {
		c.labelHits[c.curLabel]++
	}
	if c.curTrans >= 0 {
		c.attempts[c.curTrans]++
		if ok {
			c.hits[c.curTrans]++
		}
	}
}

// extend records one substitution emitted through the current transition.
func (c *explainCollector) extend() {
	if c.curTrans >= 0 {
		c.extensions[c.curTrans]++
	}
}

// groundPop records one ground-DFA worklist pop of the universal
// enumeration/hybrid algorithms; the subset states are visited separately.
func (c *explainCollector) groundPop() { c.groundPops++ }

// report assembles the profile. q supplies name formatting; g the edge
// labels. The profile covers the pattern's NFA, or the universal worklist
// solver's determinization ("dfa").
func (c *explainCollector) report(q *Query, g *graph.Graph, algo Algo) *Explain {
	e := &Explain{
		Algo:       algo.String(),
		Automaton:  "nfa",
		GroundRuns: c.groundRuns,
	}
	if c.auto != q.NFA {
		e.Automaton = "dfa"
	}
	a := c.auto
	hasBad := c.visits[a.NumStates] > 0
	for s := 0; s < a.NumStates; s++ {
		e.States = append(e.States, StateProfile{
			State:  s,
			Visits: c.visits[s],
			Start:  int32(s) == a.Start,
			Final:  a.Final[s],
		})
		e.Totals.Visits += c.visits[s]
		for i, tr := range a.Trans[s] {
			ti := c.ti(int32(s), i)
			e.Transitions = append(e.Transitions, TransProfile{
				From:       s,
				To:         int(tr.To),
				Label:      tr.Label.Format(q.U, q.PS),
				Attempts:   c.attempts[ti],
				Hits:       c.hits[ti],
				Extensions: c.extensions[ti],
			})
			e.Totals.Attempts += c.attempts[ti]
			e.Totals.Hits += c.hits[ti]
			e.Totals.Extensions += c.extensions[ti]
		}
	}
	if hasBad {
		e.States = append(e.States, StateProfile{
			State:  a.NumStates,
			Visits: c.visits[a.NumStates],
			Bad:    true,
		})
		e.Totals.Visits += c.visits[a.NumStates]
	}
	for id := range g.NumLabels() {
		e.Labels = append(e.Labels, LabelProfile{
			Label:    g.Label(int32(id)).Format(g.U),
			Attempts: c.labelAttempts[id],
			Hits:     c.labelHits[id],
		})
	}
	e.Totals.GroundPops = c.groundPops
	e.absorb(c.inner)
	return e
}

// Format renders the profile as a human-readable text report.
func (e *Explain) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query profile: algo=%s automaton=%s\n", e.Algo, e.Automaton)
	fmt.Fprintf(&b, "totals: visits=%d attempts=%d hits=%d extensions=%d",
		e.Totals.Visits, e.Totals.Attempts, e.Totals.Hits, e.Totals.Extensions)
	if e.Totals.GroundPops > 0 {
		fmt.Fprintf(&b, " ground_pops=%d ground_runs=%d", e.Totals.GroundPops, e.GroundRuns)
	}
	b.WriteString("\n\nstates:\n")
	for _, s := range e.States {
		marks := ""
		if s.Start {
			marks += " start"
		}
		if s.Final {
			marks += " final"
		}
		if s.Bad {
			marks += " bad"
		}
		fmt.Fprintf(&b, "  s%-4d visits=%-10d%s\n", s.State, s.Visits, marks)
	}
	b.WriteString("\ntransitions:\n")
	for _, t := range e.Transitions {
		fmt.Fprintf(&b, "  s%d -%s-> s%d  attempts=%d hits=%d extensions=%d\n",
			t.From, t.Label, t.To, t.Attempts, t.Hits, t.Extensions)
	}
	b.WriteString("\nedge labels:\n")
	lbls := make([]LabelProfile, len(e.Labels))
	copy(lbls, e.Labels)
	sort.SliceStable(lbls, func(i, j int) bool { return lbls[i].Attempts > lbls[j].Attempts })
	for _, l := range lbls {
		if l.Attempts == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-24s attempts=%-10d hits=%d\n", l.Label, l.Attempts, l.Hits)
	}
	return b.String()
}

// DOT renders the annotated automaton in Graphviz DOT: states are filled on
// a white→red heat scale by visit count, transitions are labeled
// "label attempts/hits/extensions" with pen width scaled by extensions.
func (e *Explain) DOT() string {
	var maxVisits, maxExt int64 = 1, 1
	for _, s := range e.States {
		if s.Visits > maxVisits {
			maxVisits = s.Visits
		}
	}
	for _, t := range e.Transitions {
		if t.Extensions > maxExt {
			maxExt = t.Extensions
		}
	}
	var b strings.Builder
	b.WriteString("digraph explain {\n")
	b.WriteString("  rankdir=LR;\n")
	b.WriteString("  node [style=filled, fontname=\"Helvetica\"];\n")
	b.WriteString("  edge [fontname=\"Helvetica\", fontsize=10];\n")
	for _, s := range e.States {
		shape := "circle"
		if s.Final {
			shape = "doublecircle"
		}
		if s.Bad {
			shape = "octagon"
		}
		// Heat: saturation proportional to the visit share (HSV red).
		sat := float64(s.Visits) / float64(maxVisits)
		name := fmt.Sprintf("s%d", s.State)
		if s.Bad {
			name = "bad"
		}
		fmt.Fprintf(&b, "  %s [label=\"%s\\n%d\", shape=%s, fillcolor=\"0.0 %.2f 1.0\"];\n",
			name, name, s.Visits, shape, sat)
		if s.Start {
			fmt.Fprintf(&b, "  __start [shape=point, label=\"\"];\n  __start -> %s;\n", name)
		}
	}
	for _, t := range e.Transitions {
		w := 1.0 + 3.0*float64(t.Extensions)/float64(maxExt)
		fmt.Fprintf(&b, "  s%d -> s%d [label=%q, penwidth=%.2f];\n",
			t.From, t.To, fmt.Sprintf("%s\n%d/%d/%d", t.Label, t.Attempts, t.Hits, t.Extensions), w)
	}
	b.WriteString("}\n")
	return b.String()
}

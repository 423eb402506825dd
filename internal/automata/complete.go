package automata

import "rpq/internal/label"

// Complete returns an equivalent automaton made complete by adding an
// explicit trap state: every state gains a transition to the trap labeled
// with the negated alternation of its outgoing labels (matching exactly the
// edges none of them match), and the trap has a wildcard self-loop.
//
// This reconstructs the prior-work baseline the paper improves on: Liu & Yu
// (MPC 2002) require a complete automaton for universal queries, "which
// usually means adding explicit transitions to a trap state; this can
// significantly increase actual space usage. The algorithm in this paper
// handles incomplete automata directly, saving space." With a complete
// automaton the badstate rules (iii)/(iv) never fire — the trap absorbs
// non-matching paths — at the cost of extra transitions and matches.
//
// For parametric labels the trap label ¬(l1|…|lk) matches an edge under a
// substitution θ exactly when no outgoing label matches under θ, so
// determinism is preserved.
func Complete(n *NFA) *NFA {
	trap := int32(n.NumStates)
	out := &NFA{
		Start:     n.Start,
		NumStates: n.NumStates + 1,
		Final:     make([]bool, n.NumStates+1),
		Trans:     make([][]Transition, n.NumStates+1),
		LabelID:   map[string]int32{},
	}
	copy(out.Final, n.Final)
	addLabel := func(tl *label.CTerm) {
		if _, ok := out.LabelID[tl.Key()]; !ok {
			out.LabelID[tl.Key()] = int32(len(out.Labels))
			out.Labels = append(out.Labels, tl)
		}
	}
	for s := 0; s < n.NumStates; s++ {
		var alts []*label.CTerm
		for _, tr := range n.Trans[s] {
			out.Trans[s] = append(out.Trans[s], tr)
			addLabel(tr.Label)
			alts = append(alts, tr.Label)
		}
		var trapLabel *label.CTerm
		if len(alts) == 0 {
			// No outgoing labels: everything goes to the trap.
			trapLabel = label.MustCompile(label.Wildcard(), nil, nil)
		} else {
			trapLabel = label.NegOr(alts...)
		}
		out.Trans[s] = append(out.Trans[s], Transition{Label: trapLabel, To: trap})
		addLabel(trapLabel)
	}
	wild := label.MustCompile(label.Wildcard(), nil, nil)
	out.Trans[trap] = []Transition{{Label: wild, To: trap}}
	addLabel(wild)
	return out
}

// CompleteExplicit is the classical completion the paper contrasts with:
// for every state and every alphabet letter (a distinct ground edge label of
// the graph under analysis) that no outgoing transition matches, an explicit
// transition to the trap is added. For parameter-free patterns this is the
// construction Liu & Yu (2002) require; its transition count grows with
// states × edgelabels, which is the "significantly increase[d] actual space
// usage" the incomplete-automaton algorithm avoids.
//
// Precondition: the automaton's labels are ground (parameter-free), so
// matchability per letter is decidable at construction time.
func CompleteExplicit(n *NFA, alphabet []label.Ground) *NFA {
	trap := int32(n.NumStates)
	out := &NFA{
		Start:     n.Start,
		NumStates: n.NumStates + 1,
		Final:     make([]bool, n.NumStates+1),
		Trans:     make([][]Transition, n.NumStates+1),
		LabelID:   map[string]int32{},
	}
	copy(out.Final, n.Final)
	addLabel := func(tl *label.CTerm) {
		if _, ok := out.LabelID[tl.Key()]; !ok {
			out.LabelID[tl.Key()] = int32(len(out.Labels))
			out.Labels = append(out.Labels, tl)
		}
	}
	for s := 0; s <= n.NumStates; s++ {
		if s < n.NumStates {
			for _, tr := range n.Trans[s] {
				out.Trans[s] = append(out.Trans[s], tr)
				addLabel(tr.Label)
			}
		}
		for _, el := range alphabet {
			covered := false
			if s < n.NumStates {
				for _, tr := range n.Trans[s] {
					if label.MatchGround(tr.Label, el, nil) {
						covered = true
						break
					}
				}
			}
			if !covered {
				tl := el.Pattern()
				out.Trans[s] = append(out.Trans[s], Transition{Label: tl, To: trap})
				addLabel(tl)
			}
		}
	}
	return out
}

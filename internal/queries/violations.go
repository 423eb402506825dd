package queries

import (
	"errors"
	"fmt"

	"rpq/internal/automata"
	"rpq/internal/core"
	"rpq/internal/label"
	"rpq/internal/pattern"
)

// ErrNotDiscipline is wrapped by the error ViolationQuery returns when the
// discipline pattern cannot describe a per-resource discipline: it has no
// labels, or one of its labels is not a plain constructor application.
var ErrNotDiscipline = errors.New("queries: not a discipline pattern")

// ViolationQuery implements the Section 5.4 usability extension: the user
// specifies a universal per-resource discipline — e.g. operations on a file
// f must follow (open(f) (access(f))* close(f))*, with unrelated operations
// allowed anywhere — and a single merged existential query is generated that
// finds every kind of violation at once.
//
// Construction: the discipline pattern is compiled and determinized over its
// own (opaque) label alphabet. Each automaton state receives a self-loop
// labeled with the negated alternation of all discipline labels, skipping
// operations the discipline does not mention. A fresh error state (the only
// final state) absorbs every discipline operation that has no transition
// from its state — those are exactly the out-of-order operations. If
// withExit is set, an exit() edge from any non-final discipline state also
// goes to the error state, catching resources left in an incomplete state at
// procedure exit (e.g. files never closed).
//
// The result pairs ⟨v, θ⟩ of the generated query identify the program point
// just after a violating operation (or the exit) and the resource bound by
// θ.
func ViolationQuery(discipline pattern.Expr, gu *label.Universe, withExit bool) (*core.Query, error) {
	// Like core.Compile, compile against an overlay of the graph's
	// universe, so the discipline's names never reach the graph's.
	ov := gu.Overlay()
	u := &ov
	ps := &label.ParamSpace{}
	nfa, err := automata.FromPattern(discipline, u, ps)
	if err != nil {
		return nil, err
	}
	dfa := automata.Determinize(nfa)
	if len(dfa.Labels) == 0 {
		return nil, fmt.Errorf("%w: it has no labels", ErrNotDiscipline)
	}
	for _, tl := range dfa.Labels {
		if tl.Kind != label.KApp {
			return nil, fmt.Errorf("%w: labels must be plain constructor applications, got %s", ErrNotDiscipline, tl.Format(u, ps))
		}
	}

	errState := int32(dfa.NumStates)
	out := &automata.NFA{
		Start:     dfa.Start,
		NumStates: dfa.NumStates + 1,
		Final:     make([]bool, dfa.NumStates+1),
		Trans:     make([][]automata.Transition, dfa.NumStates+1),
		LabelID:   map[string]int32{},
	}
	out.Final[errState] = true

	addLabel := func(tl *label.CTerm) {
		if _, ok := out.LabelID[tl.Key()]; !ok {
			out.LabelID[tl.Key()] = int32(len(out.Labels))
			out.Labels = append(out.Labels, tl)
		}
	}
	skip := label.NegOr(dfa.Labels...)
	exitLbl, err := label.Compile(label.App("exit"), u, ps)
	if err != nil {
		return nil, err
	}

	for s := 0; s < dfa.NumStates; s++ {
		present := map[string]bool{}
		for _, tr := range dfa.Trans[s] {
			out.Trans[s] = append(out.Trans[s], tr)
			addLabel(tr.Label)
			present[tr.Label.Key()] = true
		}
		// Unrelated operations are allowed anywhere.
		out.Trans[s] = append(out.Trans[s], automata.Transition{Label: skip, To: int32(s)})
		addLabel(skip)
		// A discipline operation with no transition here is a violation.
		for _, tl := range dfa.Labels {
			if !present[tl.Key()] {
				out.Trans[s] = append(out.Trans[s], automata.Transition{Label: tl, To: errState})
				addLabel(tl)
			}
		}
		// Ending in the middle of the discipline is a violation.
		if withExit && !dfa.Final[s] {
			out.Trans[s] = append(out.Trans[s], automata.Transition{Label: exitLbl, To: errState})
			addLabel(exitLbl)
		}
	}
	return &core.Query{Expr: discipline, U: u, PS: ps, NFA: out}, nil
}

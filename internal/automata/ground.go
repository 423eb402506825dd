package automata

import "rpq/internal/label"

// GroundDFA is a deterministic automaton over a concrete, finite alphabet:
// the distinct edge labels of one graph. It is exact — wildcards and
// negations have been expanded over the alphabet — so it is used by the
// enumeration and hybrid universal algorithms of Section 4, where the
// pattern has been instantiated by a full substitution and runtime
// determinism checks are unnecessary.
type GroundDFA struct {
	Start     int32
	NumStates int
	Final     []bool
	// Trans[state][letter] is the successor state, or -1 if the automaton
	// has no transition (incomplete; corresponds to badstate).
	Trans      [][]int32
	NumLetters int
	// Sets[state] is the sorted set of NFA states the subset construction
	// merged into this DFA state. DeterminizeGround populates it so the
	// explain profiler can attribute ground-DFA visits back to pattern NFA
	// states.
	Sets [][]int32
}

// Step returns the successor of state on letter, or -1.
func (d *GroundDFA) Step(state int32, letter int32) int32 {
	return d.Trans[state][letter]
}

// NumTrans counts the present (non -1) transitions; "maxTrans" of the
// enumeration algorithm's complexity is the maximum of this over all
// instantiated patterns.
func (d *GroundDFA) NumTrans() int {
	total := 0
	for _, row := range d.Trans {
		for _, t := range row {
			if t >= 0 {
				total++
			}
		}
	}
	return total
}

// DeterminizeGround determinizes the pattern NFA n exactly over the given
// alphabet of ground edge labels, under the full substitution subst (which
// must bind every parameter occurring in n's labels; use an empty slice for
// a parameter-free pattern). Letter i of the result is alphabet[i].
func DeterminizeGround(n *NFA, alphabet []label.Ground, subst []int32) *GroundDFA {
	// Precompute which letters each distinct NFA label matches under subst.
	matches := make([][]bool, len(n.Labels))
	for li, tl := range n.Labels {
		row := make([]bool, len(alphabet))
		for ai, el := range alphabet {
			row[ai] = label.MatchGround(tl, el, subst)
		}
		matches[li] = row
	}

	encode := func(set []int32) string {
		b := make([]byte, 0, len(set)*4)
		for _, s := range set {
			b = append(b, byte(s), byte(s>>8), byte(s>>16), byte(s>>24))
		}
		return string(b)
	}

	startSet := []int32{n.Start}
	ids := map[string]int32{encode(startSet): 0}
	sets := [][]int32{startSet}
	d := &GroundDFA{Start: 0, NumLetters: len(alphabet)}
	d.Final = append(d.Final, n.Final[n.Start])
	d.Trans = append(d.Trans, newRow(len(alphabet)))

	for work := []int32{0}; len(work) > 0; {
		cur := work[len(work)-1]
		work = work[:len(work)-1]
		set := sets[cur]
		for a := 0; a < len(alphabet); a++ {
			var targets []int32
			for _, s := range set {
				for _, tr := range n.Trans[s] {
					if matches[n.LabelID[tr.Label.Key()]][a] {
						targets = append(targets, tr.To)
					}
				}
			}
			if len(targets) == 0 {
				continue
			}
			targets = dedupSorted(targets)
			k := encode(targets)
			id, ok := ids[k]
			if !ok {
				id = int32(len(sets))
				ids[k] = id
				sets = append(sets, targets)
				fin := false
				for _, s := range targets {
					fin = fin || n.Final[s]
				}
				d.Final = append(d.Final, fin)
				d.Trans = append(d.Trans, newRow(len(alphabet)))
				work = append(work, id)
			}
			d.Trans[cur][a] = id
		}
	}
	d.NumStates = len(sets)
	d.Sets = sets
	return d
}

func newRow(n int) []int32 {
	row := make([]int32, n)
	for i := range row {
		row[i] = -1
	}
	return row
}

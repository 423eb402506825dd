package automata

import (
	"sort"

	"rpq/internal/label"
)

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
	// states; Minimize does not maintain it (the output's Sets is nil).
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

// Minimize returns an equivalent GroundDFA with the minimal number of
// states, by Moore partition refinement over the (complete-with-sink)
// automaton. The sink class is dropped again on output, keeping the result
// incomplete. Minimization is an optional optimization (Section 5.3 invites
// exploiting structure); the solvers work on unminimized automata too.
func (d *GroundDFA) Minimize() *GroundDFA {
	n := d.NumStates
	if n == 0 {
		return d
	}
	// Class 0/1 initially: non-final vs final; sink is class of its own,
	// represented by state index n.
	class := make([]int32, n+1)
	for s := 0; s < n; s++ {
		if d.Final[s] {
			class[s] = 1
		}
	}
	class[n] = 0 // sink is non-final
	step := func(s int32, a int) int32 {
		if s == int32(n) {
			return int32(n)
		}
		t := d.Trans[s][a]
		if t < 0 {
			return int32(n)
		}
		return t
	}
	for {
		// Signature of each state: (class, class of successor per letter).
		sig := make([]string, n+1)
		for s := 0; s <= n; s++ {
			b := make([]byte, 0, (d.NumLetters+1)*4)
			b = appendInt32(b, class[s])
			for a := 0; a < d.NumLetters; a++ {
				b = appendInt32(b, class[step(int32(s), a)])
			}
			sig[s] = string(b)
		}
		ids := map[string]int32{}
		next := make([]int32, n+1)
		var keys []string
		for s := 0; s <= n; s++ {
			if _, ok := ids[sig[s]]; !ok {
				keys = append(keys, sig[s])
				ids[sig[s]] = 0
			}
		}
		sort.Strings(keys)
		for i, k := range keys {
			ids[k] = int32(i)
		}
		changed := false
		for s := 0; s <= n; s++ {
			next[s] = ids[sig[s]]
			if next[s] != class[s] {
				changed = true
			}
		}
		class = next
		if !changed {
			break
		}
	}
	sinkClass := class[n]
	if class[d.Start] == sinkClass {
		// The whole automaton is equivalent to the sink: it accepts nothing.
		return &GroundDFA{
			Start:      0,
			NumStates:  1,
			NumLetters: d.NumLetters,
			Final:      []bool{false},
			Trans:      [][]int32{newRow(d.NumLetters)},
		}
	}
	// Renumber classes except the sink; start's class first for a canonical
	// start id of 0 is not required, keep natural order.
	remap := map[int32]int32{}
	var order []int32
	for s := 0; s < n; s++ {
		c := class[s]
		if c == sinkClass {
			continue
		}
		if _, ok := remap[c]; !ok {
			remap[c] = int32(len(order))
			order = append(order, c)
		}
	}
	out := &GroundDFA{
		NumStates:  len(order),
		NumLetters: d.NumLetters,
		Final:      make([]bool, len(order)),
		Trans:      make([][]int32, len(order)),
	}
	for s := 0; s < n; s++ {
		c := class[s]
		if c == sinkClass {
			continue
		}
		id := remap[c]
		if out.Trans[id] != nil {
			continue // class already emitted
		}
		out.Trans[id] = newRow(d.NumLetters)
		out.Final[id] = d.Final[s]
		for a := 0; a < d.NumLetters; a++ {
			t := d.Trans[s][a]
			if t < 0 || class[t] == sinkClass {
				continue
			}
			out.Trans[id][a] = remap[class[t]]
		}
	}
	out.Start = remap[class[d.Start]]
	return out
}

func appendInt32(b []byte, v int32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

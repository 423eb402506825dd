package prof

import "sort"

// SliceKeys are the pprof label keys the query layer stamps and the
// aggregation endpoints slice by. Label slicing applies to CPU profiles only:
// the runtime does not attach pprof labels to heap samples, so heap
// aggregation is frame-level.
var SliceKeys = []string{"rpq_kind", "variant", "table", "rpq_trace_id"}

// Frame is one aggregated function frame: Flat is the value attributed to
// samples where the function is the leaf, Cum the value of every sample whose
// stack contains it.
type Frame struct {
	Func string `json:"func"`
	Flat int64  `json:"flat"`
	Cum  int64  `json:"cum"`
}

// Slice is the frame aggregation for one label value (or the whole profile
// when Value is "").
type Slice struct {
	Value  string  `json:"value,omitempty"`
	Total  int64   `json:"total"`
	Frames []Frame `json:"frames"`
}

// TopFrames aggregates the profile's samples into flat/cum frames for the
// value dimension vi, keeping the top n by flat value (cum breaks ties).
// Samples not matching the filter (when non-nil) are skipped.
func TopFrames(p *Profile, vi, n int, filter func(Sample) bool) Slice {
	type agg struct{ flat, cum int64 }
	frames := map[string]*agg{}
	var total int64
	for _, s := range p.Samples {
		if vi < 0 || vi >= len(s.Values) {
			continue
		}
		if filter != nil && !filter(s) {
			continue
		}
		v := s.Values[vi]
		total += v
		if len(s.Stack) == 0 {
			continue
		}
		// Cum counts each function once per sample even if it recurses.
		seen := map[string]bool{}
		for i, fn := range s.Stack {
			a := frames[fn]
			if a == nil {
				a = &agg{}
				frames[fn] = a
			}
			if i == 0 {
				a.flat += v
			}
			if !seen[fn] {
				a.cum += v
				seen[fn] = true
			}
		}
	}
	out := Slice{Total: total, Frames: make([]Frame, 0, len(frames))}
	for fn, a := range frames {
		out.Frames = append(out.Frames, Frame{Func: fn, Flat: a.flat, Cum: a.cum})
	}
	sort.Slice(out.Frames, func(i, j int) bool {
		a, b := out.Frames[i], out.Frames[j]
		if a.Flat != b.Flat {
			return a.Flat > b.Flat
		}
		if a.Cum != b.Cum {
			return a.Cum > b.Cum
		}
		return a.Func < b.Func
	})
	if n > 0 && len(out.Frames) > n {
		out.Frames = out.Frames[:n]
	}
	return out
}

// SliceByLabel aggregates top-N frames per distinct value of the pprof label
// key, ordered by each slice's total (descending). Samples without the label
// are grouped under value "(none)".
func SliceByLabel(p *Profile, key string, vi, n int) []Slice {
	values := map[string]bool{}
	for _, s := range p.Samples {
		if v, ok := s.Labels[key]; ok && v != "" {
			values[v] = true
		} else {
			values["(none)"] = true
		}
	}
	out := make([]Slice, 0, len(values))
	for v := range values {
		want := v
		sl := TopFrames(p, vi, n, func(s Sample) bool {
			got, ok := s.Labels[key]
			if !ok || got == "" {
				got = "(none)"
			}
			return got == want
		})
		sl.Value = v
		if sl.Total == 0 && len(sl.Frames) == 0 {
			continue
		}
		out = append(out, sl)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Value < out[j].Value
	})
	return out
}

// LabelValues returns the distinct values of the label key across samples,
// sorted, for the window listing.
func LabelValues(p *Profile, key string) []string {
	set := map[string]bool{}
	for _, s := range p.Samples {
		if v, ok := s.Labels[key]; ok && v != "" {
			set[v] = true
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// TreeNode is one node of the root-up call tree the dash icicle renders:
// Value is the node's total (self + children), Self the value of samples
// ending exactly here.
type TreeNode struct {
	Name     string      `json:"name"`
	Value    int64       `json:"value"`
	Self     int64       `json:"self,omitempty"`
	Children []*TreeNode `json:"children,omitempty"`
}

// StackTree folds the profile's samples into a call tree rooted at "root",
// for the value dimension vi, pruning children below minFrac of the root
// total into a "(other)" node so the icicle JSON stays small. The filter
// (when non-nil) restricts the samples included.
func StackTree(p *Profile, vi int, filter func(Sample) bool, minFrac float64) *TreeNode {
	root := &TreeNode{Name: "root"}
	for _, s := range p.Samples {
		if vi < 0 || vi >= len(s.Values) || len(s.Stack) == 0 {
			continue
		}
		if filter != nil && !filter(s) {
			continue
		}
		v := s.Values[vi]
		root.Value += v
		node := root
		// Stack is leaf-first; the tree wants root-down.
		for i := len(s.Stack) - 1; i >= 0; i-- {
			fn := s.Stack[i]
			var child *TreeNode
			for _, c := range node.Children {
				if c.Name == fn {
					child = c
					break
				}
			}
			if child == nil {
				child = &TreeNode{Name: fn}
				node.Children = append(node.Children, child)
			}
			child.Value += v
			node = child
		}
		node.Self += v
	}
	min := int64(float64(root.Value) * minFrac)
	pruneTree(root, min)
	return root
}

// pruneTree folds children below min into a single "(other)" sibling and
// sorts the rest by value.
func pruneTree(n *TreeNode, min int64) {
	kept := n.Children[:0]
	var other int64
	for _, c := range n.Children {
		if c.Value < min {
			other += c.Value
			continue
		}
		pruneTree(c, min)
		kept = append(kept, c)
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].Value > kept[j].Value })
	if other > 0 {
		kept = append(kept, &TreeNode{Name: "(other)", Value: other})
	}
	n.Children = kept
}

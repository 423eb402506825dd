package subst

// Domains assigns each parameter a candidate symbol set. Index i is the
// domain of parameter i. The paper bounds the number of substitutions by
// symbs^pars; Section 5.3 refines symbs to per-parameter domain sizes, which
// this type realizes. Domains are read-only: a domain may be shared with
// other domains or with the graph it was computed on (core.ComputeDomains
// hands out the graph's label-index slices), so no consumer modifies one.
type Domains [][]int32

// Uniform builds domains giving every one of pars parameters the same
// candidate set.
func Uniform(pars int, symbols []int32) Domains {
	d := make(Domains, pars)
	for i := range d {
		d[i] = symbols
	}
	return d
}

// Count returns the number of full substitutions over the domains, i.e. the
// product of the domain sizes ("substs" upper bound for enumeration).
func (d Domains) Count() int {
	n := 1
	for _, dom := range d {
		n *= len(dom)
		if n < 0 { // overflow guard for pathological inputs
			return int(^uint(0) >> 1)
		}
	}
	return n
}

// ForEachExtension enumerates extensions(θ, params): every substitution that
// extends base by binding exactly the currently unbound parameters among
// params, each to a symbol from its domain. The callback receives a buffer
// that is reused across iterations; callers must Clone it to retain it.
// Returning false from fn stops the enumeration early. ForEachExtension
// reports whether the enumeration ran to completion.
//
// If all params are already bound in base, fn is called exactly once with
// base itself.
func ForEachExtension(base Subst, params []int32, doms Domains, fn func(Subst) bool) bool {
	var free []int32
	for _, p := range params {
		if base[p] == NoSym {
			free = append(free, p)
		}
	}
	if len(free) == 0 {
		return fn(base)
	}
	buf := base.Clone()
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(free) {
			return fn(buf)
		}
		p := free[i]
		for _, sym := range doms[p] {
			buf[p] = sym
			if !rec(i + 1) {
				return false
			}
		}
		buf[p] = NoSym
		return true
	}
	return rec(0)
}

// ForEachFull enumerates every full substitution over the domains (the
// enumeration algorithm's outer loop). The buffer is reused; Clone to
// retain. Returns false if stopped early by fn.
func ForEachFull(pars int, doms Domains, fn func(Subst) bool) bool {
	return ForEachExtension(New(pars), allParams(pars), doms, fn)
}

func allParams(pars int) []int32 {
	out := make([]int32, pars)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

// AllParams returns [0, 1, ..., pars-1].
func AllParams(pars int) []int32 { return allParams(pars) }

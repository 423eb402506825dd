package core

import "time"

// phaseStart reads the clock at a phase boundary. The solver core reads the
// clock only through phaseStart and phaseWall, once per phase, never per
// worklist pop.
func phaseStart() time.Time { return time.Now() }

// phaseWall returns the wall time of the phase that started at t0.
func phaseWall(t0 time.Time) time.Duration { return time.Since(t0) }

// sampleMask throttles progress delivery: one snapshot every sampleMask+1
// worklist pops. A power of two minus one, so the test is a single AND.
const sampleMask = 255

// enumProgress reports one enumerated substitution to Options.Progress.
// Every triple the finished ground passes inserted has been popped, so
// their inserts count both the pops and the reach size (as
// Stats.ReachSize counts it for the enumeration variants).
func enumProgress(opts Options, s *Stats, substs, enumerated int, bytes int64) {
	if p := opts.Progress; p != nil {
		n := int64(s.WorklistInserts)
		p(Progress{Phase: "enumerate", Pops: n, Reach: n, Substs: int64(substs),
			EnumSubsts: int64(enumerated), Bytes: bytes})
	}
}

// pairsBytes models the storage of n result pairs over pars parameters —
// slice header plus interned substitution data per pair — so every variant
// accounts results identically.
func pairsBytes(n, pars int) int64 {
	return int64(n) * int64(24+4*pars)
}

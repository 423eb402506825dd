package prof

import (
	"bytes"
	"compress/gzip"
	"sort"
)

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Test-side pprof proto encoder: enough of profile.proto to build golden
// fixtures without depending on github.com/google/pprof. The decoder under
// test must never share code with this, so the two are independent
// implementations of the wire format.

type encBuf struct{ b []byte }

func (e *encBuf) varint(v uint64) {
	for v >= 0x80 {
		e.b = append(e.b, byte(v)|0x80)
		v >>= 7
	}
	e.b = append(e.b, byte(v))
}

func (e *encBuf) tag(field, wire int) { e.varint(uint64(field<<3 | wire)) }

func (e *encBuf) intField(field int, v int64) {
	e.tag(field, 0)
	e.varint(uint64(v))
}

func (e *encBuf) bytesField(field int, b []byte) {
	e.tag(field, 2)
	e.varint(uint64(len(b)))
	e.b = append(e.b, b...)
}

// packedInts encodes a repeated int64 field in packed form.
func (e *encBuf) packedInts(field int, vs []int64) {
	var inner encBuf
	for _, v := range vs {
		inner.varint(uint64(v))
	}
	e.bytesField(field, inner.b)
}

// valueType is one sample-value dimension ("cpu"/"nanoseconds", ...).
type valueType struct{ typ, unit string }

// testProfileSpec describes one synthetic profile for the encoder.
type testProfileSpec struct {
	sampleTypes []valueType
	period      int64
	samples     []testSample
}

type testSample struct {
	stack  []string // leaf first, like the decoder's output
	values []int64
	labels map[string]string
	nums   map[string]int64
}

// encodeTestProfile builds the gzipped pprof proto for spec. String-table,
// function, and location ids are assigned in first-use order, so identical
// specs encode to identical bytes (golden-stable).
func encodeTestProfile(spec testProfileSpec) []byte {
	strs := []string{""} // index 0 must be the empty string
	strIdx := map[string]int64{"": 0}
	str := func(s string) int64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		i := int64(len(strs))
		strs = append(strs, s)
		strIdx[s] = i
		return i
	}

	fnIdx := map[string]uint64{}
	var fnNames []string
	fn := func(name string) uint64 {
		if id, ok := fnIdx[name]; ok {
			return id
		}
		id := uint64(len(fnNames) + 1)
		fnNames = append(fnNames, name)
		fnIdx[name] = id
		return id
	}
	// One location per function (no inlining in fixtures).
	loc := func(name string) int64 { return int64(fn(name)) }

	var p encBuf
	for _, st := range spec.sampleTypes {
		var vt encBuf
		vt.intField(1, str(st.typ))
		vt.intField(2, str(st.unit))
		p.bytesField(1, vt.b)
	}
	for _, s := range spec.samples {
		var sm encBuf
		locs := make([]int64, len(s.stack))
		for i, f := range s.stack {
			locs[i] = loc(f)
		}
		sm.packedInts(1, locs)
		sm.packedInts(2, s.values)
		// Maps iterate in random order; sort keys so identical specs encode
		// to identical bytes (the goldens are committed).
		for _, k := range sortedKeys(s.labels) {
			var lb encBuf
			lb.intField(1, str(k))
			lb.intField(2, str(s.labels[k]))
			sm.bytesField(3, lb.b)
		}
		for _, k := range sortedKeys(s.nums) {
			var lb encBuf
			lb.intField(1, str(k))
			lb.intField(3, s.nums[k])
			sm.bytesField(3, lb.b)
		}
		p.bytesField(2, sm.b)
	}
	for i := range fnNames {
		id := uint64(i + 1)
		var ln encBuf
		ln.intField(1, int64(id)) // Line.function_id
		var lc encBuf
		lc.intField(1, int64(id)) // Location.id (same as the function's)
		lc.bytesField(4, ln.b)
		p.bytesField(4, lc.b)
	}
	for i, name := range fnNames {
		var f encBuf
		f.intField(1, int64(i+1))
		f.intField(2, str(name))
		p.bytesField(5, f.b)
	}
	for _, s := range strs {
		p.bytesField(6, []byte(s))
	}
	p.intField(9, 1700000000_000000000) // time_nanos (fixed for determinism)
	p.intField(10, int64(10_000_000_000))
	var pt encBuf
	pt.intField(1, str("cpu"))
	pt.intField(2, str("nanoseconds"))
	p.bytesField(11, pt.b)
	if spec.period != 0 {
		p.intField(12, spec.period)
	}

	var gz bytes.Buffer
	// Fixed header fields so identical input bytes gzip identically.
	zw, _ := gzip.NewWriterLevel(&gz, gzip.BestCompression)
	zw.Write(p.b)
	zw.Close()
	return gz.Bytes()
}

// fixtureSpec builds the golden profile for one query kind: solver frames
// under the kind's entry point, labeled the way the rpq layer stamps real
// queries.
func fixtureSpec(kind string) testProfileSpec {
	entry := map[string]string{
		"exist":      "rpq.Exist",
		"universal":  "rpq.Universal",
		"violations": "rpq.Violations",
	}[kind]
	labels := func(trace string) map[string]string {
		return map[string]string{
			"rpq_kind":     kind,
			"variant":      "memo",
			"table":        "t4",
			"workers":      "1",
			"rpq_trace_id": trace,
		}
	}
	return testProfileSpec{
		sampleTypes: []valueType{
			{typ: "samples", unit: "count"},
			{typ: "cpu", unit: "nanoseconds"},
		},
		period: 10_000_000,
		samples: []testSample{
			// Stacks are leaf first: solve dominates, match is the hot leaf.
			{stack: []string{"rpq/internal/core.match", "rpq/internal/core.(*engine).solve", entry, "main.main"},
				values: []int64{6, 60_000_000}, labels: labels("aaaa0000aaaa0000aaaa0000aaaa0000")},
			{stack: []string{"rpq/internal/core.(*engine).solve", entry, "main.main"},
				values: []int64{3, 30_000_000}, labels: labels("aaaa0000aaaa0000aaaa0000aaaa0000")},
			{stack: []string{"rpq/internal/core.memoLookup", "rpq/internal/core.(*engine).solve", entry, "main.main"},
				values: []int64{2, 20_000_000}, labels: labels("bbbb1111bbbb1111bbbb1111bbbb1111")},
			// Unlabeled runtime work outside any query.
			{stack: []string{"runtime.gcBgMarkWorker"},
				values: []int64{1, 10_000_000}},
		},
	}
}

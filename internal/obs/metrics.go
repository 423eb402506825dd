package obs

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Gauge is an atomically updated int64 metric, safe to write from a solver
// loop while the HTTP exposition reads it.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add increments by d.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value reads the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Registry names a set of gauges and latency histograms and renders them in
// the Prometheus text exposition format. Registration is cheap and
// idempotent by name.
type Registry struct {
	mu     sync.Mutex
	gauges map[string]*Gauge
	hists  map[string]*Histogram
	help   map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{gauges: map[string]*Gauge{}, hists: map[string]*Histogram{}, help: map[string]string{}}
}

// defaultRegistry backs Default.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry served by Serve when no
// explicit registry is given.
func Default() *Registry { return defaultRegistry }

// Gauge returns the gauge registered under name, creating it (with the
// given help text) on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{}
	r.gauges[name] = g
	r.help[name] = help
	return g
}

// MetricKey renders a metric family plus ordered label pairs ("k1", "v1",
// "k2", "v2", ...) in the canonical form family{k1="v1",k2="v2"} used as the
// registry/Snapshot key of one label combination. With no pairs it returns
// the family unchanged. Callers must pass pairs in a fixed order — the key
// is a plain string, so the same labels in a different order name a
// different metric.
func MetricKey(family string, kv ...string) string {
	if len(kv) == 0 {
		return family
	}
	var b strings.Builder
	b.WriteString(family)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteByte('=')
		b.WriteString(strconv.Quote(kv[i+1]))
	}
	b.WriteByte('}')
	return b.String()
}

// splitMetricName splits a registry key into its family and label body (the
// text inside the braces, "" when unlabeled).
func splitMetricName(name string) (fam, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

// joinLabels renders fam plus up to two label bodies as one sample name.
func joinLabels(fam, labels, extra string) string {
	switch {
	case labels == "" && extra == "":
		return fam
	case labels == "":
		return fam + "{" + extra + "}"
	case extra == "":
		return fam + "{" + labels + "}"
	}
	return fam + "{" + labels + "," + extra + "}"
}

// LabeledGauge returns the gauge for one label combination of a metric
// family, creating it on first use. The help text is attached to the family:
// WritePrometheus renders one HELP/TYPE header per family followed by every
// label combination's sample, and Snapshot exposes each combination under
// its MetricKey, so labeled families flow into the tsdb unchanged.
func (r *Registry) LabeledGauge(family, help string, kv ...string) *Gauge {
	name := MetricKey(family, kv...)
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{}
	r.gauges[name] = g
	r.help[family] = help
	return g
}

// LabeledHistogram is LabeledGauge for latency histograms: one histogram per
// label combination, rendered with the family's labels merged into each
// quantile/bucket sample.
func (r *Registry) LabeledHistogram(family, help string, kv ...string) *Histogram {
	name := MetricKey(family, kv...)
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := &Histogram{}
	r.hists[name] = h
	r.help[family] = help
	return h
}

// Histogram returns the latency histogram registered under name, creating
// it (with the given help text) on first use.
func (r *Registry) Histogram(name, help string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := &Histogram{}
	if r.hists == nil {
		r.hists = map[string]*Histogram{}
	}
	r.hists[name] = h
	r.help[name] = help
	return h
}

// Snapshot returns the current name → value map, for expvar publication.
// Histograms contribute <name>_count, <name>_sum_us, and the p50/p95/p99
// bucket-midpoint estimates in microseconds.
func (r *Registry) Snapshot() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.gauges)+5*len(r.hists))
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.hists {
		out[name+"_count"] = h.Count()
		out[name+"_sum_us"] = h.Sum().Microseconds()
		out[name+"_p50_us"] = h.Quantile(0.50).Microseconds()
		out[name+"_p95_us"] = h.Quantile(0.95).Microseconds()
		out[name+"_p99_us"] = h.Quantile(0.99).Microseconds()
	}
	return out
}

// WritePrometheus renders every gauge and histogram in the Prometheus text
// exposition format (# HELP / # TYPE lines followed by the samples), sorted
// by name. Labeled families (LabeledGauge/LabeledHistogram) render one
// HELP/TYPE header followed by every label combination's sample — sorted
// names keep a family's combinations contiguous, since '{' sorts after every
// metric-name character. Histograms are rendered as summaries:
// quantile-labelled samples in seconds plus <name>_sum and <name>_count.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	names := make([]string, 0, len(r.gauges))
	for name := range r.gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	type row struct {
		name, fam, labels, help string
		value                   int64
	}
	rows := make([]row, 0, len(names))
	for _, name := range names {
		fam, labels := splitMetricName(name)
		help := r.help[fam]
		if help == "" {
			help = r.help[name]
		}
		rows = append(rows, row{name, fam, labels, help, r.gauges[name].Value()})
	}
	hnames := make([]string, 0, len(r.hists))
	for name := range r.hists {
		hnames = append(hnames, name)
	}
	sort.Strings(hnames)
	type hrow struct {
		fam, labels, help string
		p50, p95, p99     float64
		sum               float64
		count             int64
		buckets           [histBuckets]int64
		exemplars         [histBuckets]*Exemplar
	}
	hrows := make([]hrow, 0, len(hnames))
	for _, name := range hnames {
		h := r.hists[name]
		counts, count, sumUS := h.snapshot()
		fam, labels := splitMetricName(name)
		help := r.help[fam]
		if help == "" {
			help = r.help[name]
		}
		hr := hrow{
			fam: fam, labels: labels, help: help,
			p50: h.Quantile(0.50).Seconds(), p95: h.Quantile(0.95).Seconds(),
			p99: h.Quantile(0.99).Seconds(),
			sum: float64(sumUS) / 1e6, count: count, buckets: counts,
		}
		for i := range hr.exemplars {
			hr.exemplars[i] = h.BucketExemplar(i)
		}
		hrows = append(hrows, hr)
	}
	r.mu.Unlock()
	lastFam := ""
	for _, rw := range rows {
		if rw.fam != lastFam {
			if rw.help != "" {
				fmt.Fprintf(w, "# HELP %s %s\n", rw.fam, rw.help)
			}
			fmt.Fprintf(w, "# TYPE %s gauge\n", rw.fam)
			lastFam = rw.fam
		}
		fmt.Fprintf(w, "%s %d\n", rw.name, rw.value)
	}
	lastFam = ""
	for _, hw := range hrows {
		if hw.fam != lastFam {
			if hw.help != "" {
				fmt.Fprintf(w, "# HELP %s %s\n", hw.fam, hw.help)
			}
			fmt.Fprintf(w, "# TYPE %s summary\n", hw.fam)
			lastFam = hw.fam
		}
		fmt.Fprintf(w, "%s %g\n", joinLabels(hw.fam, hw.labels, `quantile="0.5"`), hw.p50)
		fmt.Fprintf(w, "%s %g\n", joinLabels(hw.fam, hw.labels, `quantile="0.95"`), hw.p95)
		fmt.Fprintf(w, "%s %g\n", joinLabels(hw.fam, hw.labels, `quantile="0.99"`), hw.p99)
		fmt.Fprintf(w, "%s %g\n", joinLabels(hw.fam+"_sum", hw.labels, ""), hw.sum)
		fmt.Fprintf(w, "%s %d\n", joinLabels(hw.fam+"_count", hw.labels, ""), hw.count)
	}
	// The same data again as native Prometheus histograms with cumulative le
	// buckets, under a distinct <name>_hist family: the summary above already
	// claims <name>_sum/<name>_count, and a metric cannot be both types. The
	// bucket edges are the histogram's own log2 bucket upper bounds, 2^(i+1)
	// microseconds expressed in seconds; empty tail buckets are elided.
	lastFam = ""
	for _, hw := range hrows {
		fam := hw.fam + "_hist"
		if fam != lastFam {
			if hw.help != "" {
				fmt.Fprintf(w, "# HELP %s %s (cumulative le buckets)\n", fam, hw.help)
			}
			fmt.Fprintf(w, "# TYPE %s histogram\n", fam)
			lastFam = fam
		}
		top := 0
		for i, c := range hw.buckets {
			if c > 0 {
				top = i
			}
		}
		var cum int64
		for i := 0; i <= top; i++ {
			cum += hw.buckets[i]
			le := float64(int64(1)<<uint(i+1)) / 1e6
			fmt.Fprintf(w, "%s %d", joinLabels(fam+"_bucket", hw.labels, fmt.Sprintf("le=%q", strconv.FormatFloat(le, 'g', -1, 64))), cum)
			// OpenMetrics exemplar: the most recent trace ID that landed in
			// this bucket, so a slow bucket jumps straight to its trace (and
			// from there to the pinned profile slice).
			if e := hw.exemplars[i]; e != nil {
				fmt.Fprintf(w, " # {trace_id=%q} %g %d.%03d",
					e.TraceID, e.Value.Seconds(), e.Time.Unix(), e.Time.Nanosecond()/1e6)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "%s %d\n", joinLabels(fam+"_bucket", hw.labels, `le="+Inf"`), hw.count)
		fmt.Fprintf(w, "%s %g\n", joinLabels(fam+"_sum", hw.labels, ""), hw.sum)
		fmt.Fprintf(w, "%s %d\n", joinLabels(fam+"_count", hw.labels, ""), hw.count)
	}
}

// WriteBuildInfo emits the rpq_build_info gauge: a constant-1 sample whose
// labels carry the Go version, module path, VCS revision, and whether the
// working tree was modified at build time. Binaries built without module
// info (e.g. plain `go build file.go`) emit only the go_version label.
func WriteBuildInfo(w io.Writer) {
	goVersion, path, revision, modified := runtime.Version(), "", "", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		goVersion = bi.GoVersion
		path = bi.Main.Path
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				revision = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	fmt.Fprintf(w, "# HELP rpq_build_info build metadata of the running binary\n")
	fmt.Fprintf(w, "# TYPE rpq_build_info gauge\n")
	fmt.Fprintf(w, "rpq_build_info{go_version=%q,path=%q,revision=%q,modified=%q} 1\n",
		goVersion, path, revision, modified)
}

// SolverGauges is the live view of running queries, fed by Sample from the
// solvers' Progress snapshots: current worklist depth, reach-set size,
// interned substitutions, approximate table bytes, and enumeration
// progress, plus monotonic query/slow-query totals maintained by the rpq
// layer.
type SolverGauges struct {
	WorklistDepth *Gauge
	ReachSize     *Gauge
	Substs        *Gauge
	TableBytes    *Gauge
	EnumSubsts    *Gauge
	Queries       *Gauge
	SlowQueries   *Gauge

	// Resource-attribution totals maintained by the rpq layer: CPU time and
	// heap bytes attributed to completed queries, cumulative since process
	// start.
	CPUTotalUS *Gauge
	AllocTotal *Gauge

	// Latency histograms maintained by the rpq layer: end-to-end query wall
	// time and the per-phase breakdown reported in Stats.Phases.
	QueryHist   *Histogram
	CompileHist *Histogram
	DomainsHist *Histogram
	SolveHist   *Histogram
	EnumHist    *Histogram
}

// NewSolverGauges registers the solver gauge set in r (the default registry
// when nil) under the rpq_ metric namespace.
func NewSolverGauges(r *Registry) *SolverGauges {
	if r == nil {
		r = Default()
	}
	return &SolverGauges{
		WorklistDepth: r.Gauge("rpq_worklist_depth", "current solver worklist depth"),
		ReachSize:     r.Gauge("rpq_reach_size", "triples in the reach set of the running query"),
		Substs:        r.Gauge("rpq_substs_interned", "distinct substitutions interned by the running query"),
		TableBytes:    r.Gauge("rpq_table_bytes", "approximate bytes in the reach-set and substitution tables"),
		EnumSubsts:    r.Gauge("rpq_enum_substs", "full substitutions enumerated so far (enumeration/hybrid)"),
		Queries:       r.Gauge("rpq_queries_total", "queries completed since process start"),
		SlowQueries:   r.Gauge("rpq_slow_queries_total", "queries exceeding the slow-query threshold"),
		CPUTotalUS:    r.Gauge("rpq_cpu_us_total", "process CPU time attributed to completed queries, microseconds"),
		AllocTotal:    r.Gauge("rpq_alloc_bytes_total", "heap bytes allocated during completed queries"),
		QueryHist:     r.Histogram("rpq_query_seconds", "end-to-end query latency"),
		CompileHist:   r.Histogram("rpq_phase_compile_seconds", "pattern compilation latency per query"),
		DomainsHist:   r.Histogram("rpq_phase_domains_seconds", "parameter-domain computation latency per query"),
		SolveHist:     r.Histogram("rpq_phase_solve_seconds", "worklist solve latency per query"),
		EnumHist:      r.Histogram("rpq_phase_enumerate_seconds", "enumeration-phase latency per query"),
	}
}

// Sample publishes one live progress snapshot into the gauges.
func (s *SolverGauges) Sample(p Progress) {
	s.WorklistDepth.Set(p.WorklistDepth)
	s.ReachSize.Set(p.Reach)
	s.Substs.Set(p.Substs)
	s.TableBytes.Set(p.Bytes)
	s.EnumSubsts.Set(p.EnumSubsts)
}

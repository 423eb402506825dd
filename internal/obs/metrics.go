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

// Registry names a set of gauges, counters and latency histograms and
// renders them in the Prometheus text exposition format. Registration is
// cheap and idempotent by name.
type Registry struct {
	mu     sync.Mutex
	gauges map[string]*Gauge
	hists  map[string]*Histogram
	help   map[string]string
	// counters holds the families registered through Counter/LabeledCounter,
	// whose # TYPE renders as counter instead of gauge.
	counters map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{gauges: map[string]*Gauge{}, hists: map[string]*Histogram{},
		help: map[string]string{}, counters: map[string]bool{}}
}

// defaultRegistry backs Default.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry served by Serve when no
// explicit registry is given.
func Default() *Registry { return defaultRegistry }

// Gauge returns the gauge registered under name, creating it (with the
// given help text) on first use.
func (r *Registry) Gauge(name, help string) *Gauge { return r.LabeledGauge(name, help) }

// Counter is Gauge for a monotonic family, one that is only ever Added to:
// the same handle, rendered under # TYPE counter.
func (r *Registry) Counter(name, help string) *Gauge { return r.LabeledCounter(name, help) }

// MetricKey renders a metric family plus ordered label pairs ("k1", "v1",
// "k2", "v2", ...) in the canonical form family{k1="v1",k2="v2"} used as the
// registry key of one label combination. With no pairs it returns
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
// label combination's sample.
func (r *Registry) LabeledGauge(family, help string, kv ...string) *Gauge {
	return r.gauge(family, help, false, kv)
}

// LabeledCounter is LabeledGauge for a monotonic family; see Counter.
func (r *Registry) LabeledCounter(family, help string, kv ...string) *Gauge {
	return r.gauge(family, help, true, kv)
}

func (r *Registry) gauge(family, help string, counter bool, kv []string) *Gauge {
	name := MetricKey(family, kv...)
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{}
	r.gauges[name] = g
	r.help[family] = help
	if counter {
		r.counters[family] = true
	}
	return g
}

// LabeledHistogram is LabeledGauge for latency histograms: one histogram per
// label combination, rendered with the family's labels merged into each
// bucket, sum and count sample.
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
func (r *Registry) Histogram(name, help string) *Histogram { return r.LabeledHistogram(name, help) }

// WritePrometheus renders every gauge, counter and histogram in the
// Prometheus text exposition format (# HELP / # TYPE lines followed by the
// samples), sorted by name. Labeled families (LabeledGauge, LabeledCounter,
// LabeledHistogram) render one HELP/TYPE header followed by every label
// combination's samples — sorted names keep a family's combinations
// contiguous, since '{' sorts after every metric-name character. A histogram renders as a Prometheus histogram:
// cumulative <name>_bucket samples whose le edges are its log2 bucket upper
// bounds, 2^(i+1) microseconds in seconds (empty tail buckets elided), then
// le="+Inf", <name>_sum in seconds and <name>_count.
func (r *Registry) WritePrometheus(w io.Writer) {
	type row struct {
		name, fam, labels, help, typ string
		value                        int64
		counts                       [histBuckets]int64
		count, sum                   int64
	}
	r.mu.Lock()
	split := func(name string) row {
		fam, labels := splitMetricName(name)
		return row{name: name, fam: fam, labels: labels, help: r.help[fam]}
	}
	var gauges, hists []row
	for name, g := range r.gauges {
		rw := split(name)
		rw.typ = "gauge"
		if r.counters[rw.fam] {
			rw.typ = "counter"
		}
		rw.value = g.Value()
		gauges = append(gauges, rw)
	}
	for name, h := range r.hists {
		rw := split(name)
		rw.counts, rw.count, rw.sum = h.snapshot()
		hists = append(hists, rw)
	}
	r.mu.Unlock()
	byName := func(rows []row) {
		sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	}
	byName(gauges)
	byName(hists)

	last := ""
	header := func(rw row, typ string) {
		if rw.fam == last {
			return
		}
		last = rw.fam
		if rw.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", rw.fam, rw.help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", rw.fam, typ)
	}
	for _, g := range gauges {
		header(g, g.typ)
		fmt.Fprintf(w, "%s %d\n", g.name, g.value)
	}
	for _, h := range hists {
		header(h, "histogram")
		top := 0
		for i, c := range h.counts {
			if c > 0 {
				top = i
			}
		}
		var cum int64
		for i := 0; i <= top; i++ {
			cum += h.counts[i]
			le := strconv.FormatFloat(float64(int64(1)<<uint(i+1))/1e6, 'g', -1, 64)
			fmt.Fprintf(w, "%s %d\n", joinLabels(h.fam+"_bucket", h.labels, `le="`+le+`"`), cum)
		}
		fmt.Fprintf(w, "%s %d\n", joinLabels(h.fam+"_bucket", h.labels, `le="+Inf"`), h.count)
		fmt.Fprintf(w, "%s %g\n", joinLabels(h.fam+"_sum", h.labels, ""), float64(h.sum)/1e6)
		fmt.Fprintf(w, "%s %d\n", joinLabels(h.fam+"_count", h.labels, ""), h.count)
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

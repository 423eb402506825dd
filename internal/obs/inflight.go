package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Inflight tracks the queries currently executing in the process so they can
// be introspected mid-run (the /debug/rpq/queries endpoint, progress
// tickers, watchdog bundles). Begin registers a query and returns its live
// handle; Done removes it. All methods are safe for concurrent use.
type Inflight struct {
	mu   sync.Mutex
	next int64
	m    map[int64]*InflightQuery
}

// NewInflight returns an empty in-flight registry.
func NewInflight() *Inflight {
	return &Inflight{m: map[int64]*InflightQuery{}}
}

// defaultInflight backs DefaultInflight.
var defaultInflight = NewInflight()

// DefaultInflight returns the process-wide in-flight registry used by Serve
// and the rpq layer.
func DefaultInflight() *Inflight { return defaultInflight }

// Progress is one live snapshot of a running query. The solvers deliver
// it every few hundred worklist pops, once per enumerated substitution, and
// once when a worklist solve drains; InflightQuery.Update and
// SolverGauges.Sample each publish one. Every field keeps its meaning
// across phases, and Pops and EnumSubsts never decrease within a run.
type Progress struct {
	// Phase is the phase the snapshot was taken in ("solve", "enumerate").
	Phase string `json:"phase"`
	// Pops counts triples processed so far: worklist pops while solving,
	// plus the triples of the finished ground passes while enumerating.
	Pops int64 `json:"pops"`
	// WorklistDepth is the current depth of the worklist (0 between the
	// ground passes of enumeration).
	WorklistDepth int64 `json:"worklist_depth"`
	// Reach is the reach-set size so far, counted as the run's
	// Stats.ReachSize counts it.
	Reach int64 `json:"reach_size"`
	// Substs is the number of distinct substitutions interned so far.
	Substs int64 `json:"substs"`
	// EnumSubsts is the number of full substitutions enumerated so far
	// (zero until an enumeration phase starts).
	EnumSubsts int64 `json:"enum_substs"`
	// Bytes approximates the memory held by the reach-set and
	// substitution tables.
	Bytes int64 `json:"table_bytes"`
}

// InflightQuery is the live handle of one registered query. The identity
// fields and resource anchors are set at Begin and never change; the
// progress fields are atomics updated by the solver's progress callback
// while snapshot readers load them.
type InflightQuery struct {
	id    int64
	kind  string
	query string
	algo  string
	start time.Time
	reg   *Inflight

	// traceID/spanID are the originating request's W3C trace identity
	// (lowercase hex), empty when the query carries none.
	traceID, spanID string

	// cpu0/alloc0 are the process CPU time and cumulative heap allocation at
	// Begin; Usage reports the deltas since then. Both are process-wide
	// counters, so under concurrent queries the deltas over-attribute shared
	// work — they bound the query's cost. Exact attribution comes from the
	// pprof labels the rpq layer applies around every run.
	cpu0   time.Duration
	alloc0 int64

	phase      atomic.Value // string
	pops       atomic.Int64
	depth      atomic.Int64
	reach      atomic.Int64
	substs     atomic.Int64
	enumSubsts atomic.Int64

	// Ring, when non-nil, is the query's flight-recorder event ring; the
	// watchdog drains it into a diagnostic bundle.
	Ring *RingSink
	// Lint, when non-nil, holds the static-analysis findings for the query
	// (a JSON-marshalable value set by the public layer before the query
	// starts); the watchdog writes it into bundles as lint.json. Like Ring
	// it must be set before Watchdog.Arm and never mutated afterwards.
	Lint any
}

// Begin registers a query and returns its live handle. kind is the query
// form ("exist", "universal", "violations"), query a printable rendering of
// the pattern, algo the selected algorithm, and tc the originating
// request's trace context (the zero value for none). Begin is where a
// query's clock and resource anchors are read.
func (i *Inflight) Begin(kind, query, algo string, tc TraceContext) *InflightQuery {
	q := &InflightQuery{
		kind: kind, query: query, algo: algo, start: time.Now(), reg: i,
		cpu0: ProcessCPUTime(), alloc0: HeapAllocBytes(),
	}
	if tc.IsValid() {
		q.traceID, q.spanID = tc.TraceIDString(), tc.SpanIDString()
	}
	q.phase.Store("start")
	i.mu.Lock()
	i.next++
	q.id = i.next
	i.m[q.id] = q
	i.mu.Unlock()
	return q
}

// Done unregisters the query; its handle stays readable but no longer
// appears in Snapshots. Safe to call more than once.
func (q *InflightQuery) Done() {
	if q == nil || q.reg == nil {
		return
	}
	q.reg.mu.Lock()
	delete(q.reg.m, q.id)
	q.reg.mu.Unlock()
}

// ID returns the registry-unique id assigned at Begin.
func (q *InflightQuery) ID() int64 { return q.id }

// Kind returns the query form given to Begin.
func (q *InflightQuery) Kind() string { return q.kind }

// TraceID returns the originating request's trace ID, "" without one.
func (q *InflightQuery) TraceID() string { return q.traceID }

// Usage is a query's resource use since Begin: wall-clock time, and the
// process CPU time and heap allocation deltas (upper bounds under
// concurrent queries; see the handle's cpu0 field).
type Usage struct {
	Wall  time.Duration
	CPU   time.Duration
	Alloc int64
}

// Usage reads the query's resource use so far. The deltas are clamped at
// zero: a zero CPU reading on platforms without getrusage must not go
// negative.
func (q *InflightQuery) Usage() Usage {
	u := Usage{Wall: time.Since(q.start)}
	if q.cpu0 > 0 {
		u.CPU = max(ProcessCPUTime()-q.cpu0, 0)
	}
	u.Alloc = max(HeapAllocBytes()-q.alloc0, 0)
	return u
}

// Update publishes one progress snapshot into the handle.
func (q *InflightQuery) Update(p Progress) {
	q.phase.Store(p.Phase)
	q.pops.Store(p.Pops)
	q.depth.Store(p.WorklistDepth)
	q.reach.Store(p.Reach)
	q.substs.Store(p.Substs)
	q.enumSubsts.Store(p.EnumSubsts)
}

// QuerySnapshot is one point-in-time view of an in-flight query, shaped for
// JSON exposition on /debug/rpq/queries.
type QuerySnapshot struct {
	ID         int64   `json:"id"`
	Kind       string  `json:"kind"`
	Query      string  `json:"query"`
	Algo       string  `json:"algo"`
	StartedAt  string  `json:"started_at"`
	ElapsedMS  float64 `json:"elapsed_ms"`
	Phase      string  `json:"phase"`
	Pops       int64   `json:"pops"`
	Depth      int64   `json:"worklist_depth"`
	Reach      int64   `json:"reach_size"`
	Substs     int64   `json:"substs"`
	EnumSubsts int64   `json:"enum_substs"`
	// CPUMS and AllocBytes are the process CPU time and heap allocation
	// since the query began — upper bounds under concurrent load (see the
	// handle's cpu0 field).
	CPUMS      float64 `json:"cpu_ms"`
	AllocBytes int64   `json:"alloc_bytes"`
	// TraceID/SpanID are the W3C trace identity of the originating request,
	// empty for library runs without one.
	TraceID string `json:"trace_id,omitempty"`
	SpanID  string `json:"span_id,omitempty"`
}

// Snapshot reads the handle's current state.
func (q *InflightQuery) Snapshot() QuerySnapshot {
	phase, _ := q.phase.Load().(string)
	u := q.Usage()
	return QuerySnapshot{
		ID:         q.id,
		Kind:       q.kind,
		Query:      q.query,
		Algo:       q.algo,
		StartedAt:  q.start.UTC().Format(time.RFC3339Nano),
		ElapsedMS:  float64(u.Wall.Microseconds()) / 1e3,
		Phase:      phase,
		Pops:       q.pops.Load(),
		Depth:      q.depth.Load(),
		Reach:      q.reach.Load(),
		Substs:     q.substs.Load(),
		EnumSubsts: q.enumSubsts.Load(),
		CPUMS:      float64(u.CPU.Microseconds()) / 1e3,
		AllocBytes: u.Alloc,
		TraceID:    q.traceID,
		SpanID:     q.spanID,
	}
}

// Snapshots returns a snapshot of every registered query, ordered by id.
func (i *Inflight) Snapshots() []QuerySnapshot {
	i.mu.Lock()
	qs := make([]*InflightQuery, 0, len(i.m))
	for _, q := range i.m {
		qs = append(qs, q)
	}
	i.mu.Unlock()
	sort.Slice(qs, func(a, b int) bool { return qs[a].id < qs[b].id })
	out := make([]QuerySnapshot, len(qs))
	for j, q := range qs {
		out[j] = q.Snapshot()
	}
	return out
}

// Len returns the number of queries currently registered.
func (i *Inflight) Len() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return len(i.m)
}

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

// InflightQuery is the live handle of one registered query. The immutable
// identity fields are set at Begin; the progress fields are atomics updated
// by the solver's progress callback while snapshot readers load them.
type InflightQuery struct {
	id    int64
	kind  string
	query string
	algo  string
	start time.Time
	reg   *Inflight

	// cpu0/alloc0 are the process CPU time and cumulative heap allocation at
	// Begin; Snapshot reports the deltas since then. Both are process-wide
	// counters, so under concurrent queries the deltas over-attribute shared
	// work — they bound the query's cost. Exact attribution comes from the
	// pprof labels the rpq layer applies around every run.
	cpu0   time.Duration
	alloc0 int64

	// trace holds the W3C trace identity (traceIdentity) of the originating
	// request, if any. Unlike Ring and Lint it is atomic: the query is
	// visible on /debug/rpq/queries the moment Begin returns, so SetTrace
	// can race a concurrent Snapshot.
	trace atomic.Value // traceIdentity

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

// traceIdentity is the request-trace pair published through an
// InflightQuery's trace field.
type traceIdentity struct {
	traceID, spanID string
}

// SetTrace attaches the originating request's trace identity to the handle;
// subsequent Snapshots report it. No-op when tc is invalid.
func (q *InflightQuery) SetTrace(tc TraceContext) {
	if q == nil || !tc.IsValid() {
		return
	}
	q.trace.Store(traceIdentity{traceID: tc.TraceIDString(), spanID: tc.SpanIDString()})
}

// Begin registers a query and returns its live handle. kind is the query
// form ("exist", "universal", "violations"), query a printable rendering of
// the pattern, algo the selected algorithm.
func (i *Inflight) Begin(kind, query, algo string) *InflightQuery {
	q := &InflightQuery{
		kind: kind, query: query, algo: algo, start: time.Now(), reg: i,
		cpu0: ProcessCPUTime(), alloc0: HeapAllocBytes(),
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

// Start returns the registration time.
func (q *InflightQuery) Start() time.Time { return q.start }

// Update publishes one progress snapshot into the handle's atomic fields.
// Negative counter values leave the corresponding field untouched.
func (q *InflightQuery) Update(phase string, pops, depth, reach, substs, enumSubsts int64) {
	if q == nil {
		return
	}
	if phase != "" {
		q.phase.Store(phase)
	}
	if pops >= 0 {
		q.pops.Store(pops)
	}
	if depth >= 0 {
		q.depth.Store(depth)
	}
	if reach >= 0 {
		q.reach.Store(reach)
	}
	if substs >= 0 {
		q.substs.Store(substs)
	}
	if enumSubsts >= 0 {
		q.enumSubsts.Store(enumSubsts)
	}
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
	tid, _ := q.trace.Load().(traceIdentity)
	var cpuMS float64
	if q.cpu0 > 0 {
		if d := ProcessCPUTime() - q.cpu0; d > 0 {
			cpuMS = float64(d.Microseconds()) / 1e3
		}
	}
	var allocBytes int64
	if d := HeapAllocBytes() - q.alloc0; d > 0 {
		allocBytes = d
	}
	return QuerySnapshot{
		ID:         q.id,
		Kind:       q.kind,
		Query:      q.query,
		Algo:       q.algo,
		StartedAt:  q.start.UTC().Format(time.RFC3339Nano),
		ElapsedMS:  float64(time.Since(q.start).Microseconds()) / 1e3,
		Phase:      phase,
		Pops:       q.pops.Load(),
		Depth:      q.depth.Load(),
		Reach:      q.reach.Load(),
		Substs:     q.substs.Load(),
		EnumSubsts: q.enumSubsts.Load(),
		CPUMS:      cpuMS,
		AllocBytes: allocBytes,
		TraceID:    tid.traceID,
		SpanID:     tid.spanID,
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

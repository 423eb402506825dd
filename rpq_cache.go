package rpq

import (
	"container/list"
	"sync"
	"sync/atomic"

	"rpq/internal/core"
	"rpq/internal/graph"
	"rpq/internal/label"
	"rpq/internal/obs"
	"rpq/internal/pattern"
	"rpq/internal/queries"
)

// cacheKind separates the compilation flavors a cache can hold: plain
// queries (existential and universal share one compiled automaton — the
// universal determinization is built lazily inside the shared Query) and the
// two violation-transform variants, whose automata are derived from the
// discipline pattern rather than compiled from it directly.
type cacheKind uint8

const (
	cacheKindQuery cacheKind = iota
	cacheKindViolations
	cacheKindViolationsExit
)

// cacheKey identifies one compiled automaton: the compilation flavor, the
// universe the pattern was compiled against (labels and symbols are interned
// per universe, so a Query is only valid for graphs sharing it — Reverse
// shares its source's universe, so forward and backward runs hit the same
// entry) and its size then, and the canonical rendering of the simplified
// pattern AST, which makes syntactic variants ("(a)(b)" vs "a b") share an
// entry. A query keys the names its graph lacked above the universe's
// range (core.Compile), so once the graph gains a name its entries no
// longer apply.
type cacheKey struct {
	kind        cacheKind
	universe    *label.Universe
	ctors, syms int
	canonical   string
}

// cacheEntry is one LRU slot.
type cacheEntry struct {
	key cacheKey
	q   *core.Query
}

// QueryCacheStats is a point-in-time view of a cache's counters.
type QueryCacheStats struct {
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// QueryCache memoizes compiled queries — pattern → built automaton — keyed
// by the canonical simplified pattern AST and the graph universe, with LRU
// eviction. Attach one via Options.Cache so repeated patterns skip
// compilation entirely; the query service shares a single cache across all
// requests, which is what keeps a heavy repeated-pattern workload off the
// compiler. All methods are safe for concurrent use, and the cached
// *core.Query values are themselves safe to share between concurrent runs.
//
// The cache maintains process-wide gauges in the default metric registry —
// rpq_qcache_hits_total, rpq_qcache_misses_total, rpq_qcache_evictions_total,
// and rpq_qcache_entries — so /metrics and cmd/bench can pin the
// no-recompile path.
type QueryCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used; values are *cacheEntry
	byKey map[cacheKey]*list.Element

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64

	gHits      *obs.Gauge
	gMisses    *obs.Gauge
	gEvictions *obs.Gauge
	gEntries   *obs.Gauge
}

// DefaultQueryCacheSize is the capacity NewQueryCache uses for
// non-positive requests.
const DefaultQueryCacheSize = 128

// NewQueryCache returns an empty cache holding at most capacity compiled
// queries (DefaultQueryCacheSize when capacity <= 0).
func NewQueryCache(capacity int) *QueryCache {
	if capacity <= 0 {
		capacity = DefaultQueryCacheSize
	}
	r := obs.Default()
	return &QueryCache{
		cap:        capacity,
		ll:         list.New(),
		byKey:      map[cacheKey]*list.Element{},
		gHits:      r.Counter("rpq_qcache_hits_total", "compiled-query cache hits since process start"),
		gMisses:    r.Counter("rpq_qcache_misses_total", "compiled-query cache misses (compilations) since process start"),
		gEvictions: r.Counter("rpq_qcache_evictions_total", "compiled-query cache LRU evictions since process start"),
		gEntries:   r.Gauge("rpq_qcache_entries", "compiled queries currently cached"),
	}
}

// Stats returns the cache's current counters.
func (c *QueryCache) Stats() QueryCacheStats {
	c.mu.Lock()
	n := c.ll.Len()
	c.mu.Unlock()
	return QueryCacheStats{
		Entries:   n,
		Capacity:  c.cap,
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
}

// Len returns the number of cached compiled queries.
func (c *QueryCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Purge drops every cached entry; counters are kept.
func (c *QueryCache) Purge() {
	c.mu.Lock()
	c.ll.Init()
	c.byKey = map[cacheKey]*list.Element{}
	c.gEntries.Set(0)
	c.mu.Unlock()
}

// lookup returns the cached query for key, marking it most recently used.
func (c *QueryCache) lookup(key cacheKey) (*core.Query, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).q, true
}

// insert stores q under key, evicting the least recently used entry when the
// cache is full. Concurrent misses for the same key may both compile; the
// first insert wins and the loser's work is discarded.
func (c *QueryCache) insert(key cacheKey, q *core.Query) *core.Query {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry).q
	}
	for c.ll.Len() >= c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.byKey, back.Value.(*cacheEntry).key)
		c.evictions.Add(1)
		c.gEvictions.Add(1)
	}
	c.byKey[key] = c.ll.PushFront(&cacheEntry{key: key, q: q})
	c.gEntries.Set(int64(c.ll.Len()))
	return q
}

// getOrCompile resolves e against the cache, compiling (and inserting) on a
// miss.
func (c *QueryCache) getOrCompile(kind cacheKind, u *label.Universe, e pattern.Expr) (*core.Query, error) {
	key := cacheKey{kind: kind, universe: u, ctors: u.Ctors.Len(), syms: u.Syms.Len(),
		canonical: pattern.String(pattern.Simplify(e))}
	if q, ok := c.lookup(key); ok {
		c.hits.Add(1)
		c.gHits.Add(1)
		return q, nil
	}
	c.misses.Add(1)
	c.gMisses.Add(1)
	q, err := compileKind(kind, u, e)
	if err != nil {
		return nil, err
	}
	return c.insert(key, q), nil
}

// compileKind builds the automaton for one cache flavor.
func compileKind(kind cacheKind, u *label.Universe, e pattern.Expr) (*core.Query, error) {
	switch kind {
	case cacheKindViolations:
		return queries.ViolationQuery(e, u, false)
	case cacheKindViolationsExit:
		return queries.ViolationQuery(e, u, true)
	default:
		return core.Compile(e, u)
	}
}

// compileForRun compiles a pattern for one query run, going through
// Options.Cache when one is attached and straight to the compiler otherwise.
func compileForRun(opts *Options, ig *graph.Graph, kind cacheKind, e pattern.Expr) (*core.Query, error) {
	if opts.Cache != nil {
		return opts.Cache.getOrCompile(kind, ig.U, e)
	}
	return compileKind(kind, ig.U, e)
}

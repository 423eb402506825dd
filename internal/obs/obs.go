// Package obs is the query engine's observability layer: live metrics with
// a Prometheus-style text exposition, the in-flight query registry,
// the /metrics and pprof HTTP endpoints and a slow-query log. It depends only on the
// standard library.
//
// The per-query record is core.Stats (counters and phase walls), returned
// with every result; obs holds what lives beside a run rather than in it.
// An Inflight registry tracks each running query's progress for
// /debug/rpq/queries. An atomic Registry holds the end-of-query latency
// histograms and totals and the service's gauges and counters, which the
// HTTP server exposes at /metrics. A SlowLog records queries whose
// wall-clock time crosses a threshold, and every interrupted query.
package obs

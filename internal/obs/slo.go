package obs

import "time"

// Metric families the HTTP middleware maintains for SLO accounting. A
// scraper derives the burn rate over any window from their deltas:
// (1 - Δgood/Δtotal) / (1 - objective).
const (
	SLOTotalFamily = "rpq_http_slo_total"
	SLOGoodFamily  = "rpq_http_slo_good"
)

// SLO is one service-level objective: on Route, a fraction Objective of
// requests must be good, where good means no server error (status < 500)
// and, when LatencyThreshold is non-zero, a latency at or under it.
type SLO struct {
	// Route is the stable route name the middleware records under (e.g.
	// "query", "graph_load").
	Route string
	// Objective is the target good fraction in (0,1), e.g. 0.99. The error
	// budget is 1-Objective.
	Objective float64
	// LatencyThreshold, when non-zero, makes slower-than-threshold responses
	// burn budget even when they succeed.
	LatencyThreshold time.Duration
}

// Good reports whether one response counts toward the objective.
func (s SLO) Good(status int, dur time.Duration) bool {
	if status >= 500 {
		return false
	}
	return s.LatencyThreshold == 0 || dur <= s.LatencyThreshold
}

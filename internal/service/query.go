package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"time"

	"rpq"
)

// StatusClientClosedRequest is the non-standard (nginx-convention) status
// the service reports when a query ends canceled: either the submitting
// client disconnected mid-solve or an operator hit the cancel endpoint.
const StatusClientClosedRequest = 499

// QueryRequest is the body of POST /api/v1/query.
type QueryRequest struct {
	// Graph names the catalog entry to query.
	Graph string `json:"graph"`
	// Kind is "exist" (default), "universal", or "violations".
	Kind string `json:"kind"`
	// Pattern is the query pattern; for kind "violations" it is the
	// per-resource discipline pattern the violation query is derived from.
	Pattern string `json:"pattern"`
	// WithExit extends a violations query with incomplete-at-exit checks.
	WithExit bool `json:"with_exit,omitempty"`
	// Options tunes the solver for this request.
	Options QueryOptions `json:"options"`
}

// QueryOptions is the per-request solver configuration, a JSON projection
// of rpq.Options.
type QueryOptions struct {
	Algorithm string `json:"algorithm,omitempty"` // auto|basic|memo|precomp|enum|hybrid
	Table     string `json:"table,omitempty"`     // hash|nested
	Domains   string `json:"domains,omitempty"`   // refined|all
	// Workers is accepted and ignored.
	//
	// Deprecated: every query runs the sequential solver. The field is kept
	// so requests that still send "workers" decode unchanged.
	Workers    int    `json:"workers,omitempty"`
	Witnesses  bool   `json:"witnesses,omitempty"`
	Backward   bool   `json:"backward,omitempty"`
	Start      string `json:"start,omitempty"`
	Compact    bool   `json:"compact,omitempty"`
	SCCOrder   bool   `json:"scc_order,omitempty"`
	Explain    bool   `json:"explain,omitempty"`
	DeadlineMS int64  `json:"deadline_ms,omitempty"`
	// NoLint skips the lint validation gate for this request.
	NoLint bool `json:"no_lint,omitempty"`
}

// QueryResponse is the body of a successful query.
type QueryResponse struct {
	QueryID   int64        `json:"query_id"`
	Graph     string       `json:"graph"`
	Kind      string       `json:"kind"`
	Pattern   string       `json:"pattern"`
	ElapsedMS float64      `json:"elapsed_ms"`
	Answers   []AnswerJSON `json:"answers"`
	Stats     rpq.Stats    `json:"stats"`
	Explain   *rpq.Explain `json:"explain,omitempty"`
}

// AnswerJSON is one answer: the vertex, its parameter bindings in binding
// order, and (under options.witnesses) one witnessing path.
type AnswerJSON struct {
	Vertex   string        `json:"vertex"`
	Bindings []BindingJSON `json:"bindings,omitempty"`
	Witness  []StepJSON    `json:"witness,omitempty"`
}

// BindingJSON is one parameter-to-symbol binding.
type BindingJSON struct {
	Param  string `json:"param"`
	Symbol string `json:"symbol"`
}

// StepJSON is one edge of a witness path.
type StepJSON struct {
	From  string `json:"from"`
	Label string `json:"label"`
	To    string `json:"to"`
}

// buildOptions maps a request onto rpq.Options, applying the service's
// defaults and caps.
func (s *Server) buildOptions(q QueryOptions) (*rpq.Options, error) {
	opts := &rpq.Options{
		Witnesses: q.Witnesses,
		Backward:  q.Backward,
		Start:     q.Start,
		Compact:   q.Compact,
		SCCOrder:  q.SCCOrder,
		Explain:   q.Explain,
		Cache:     s.cache,
		SlowLog:   s.cfg.SlowLog,
		Lint:      !s.cfg.DisableLint && !q.NoLint,
	}
	// An absent name keeps the zero value, which is each choice's default.
	var err error
	if q.Algorithm != "" {
		if opts.Algorithm, err = rpq.ParseAlgorithm(q.Algorithm); err != nil {
			return nil, err
		}
	}
	if q.Table != "" {
		if opts.Table, err = rpq.ParseTableKind(q.Table); err != nil {
			return nil, err
		}
	}
	if q.Domains != "" {
		if opts.Domains, err = rpq.ParseDomainMode(q.Domains); err != nil {
			return nil, err
		}
	}
	deadline := s.cfg.DefaultDeadline
	switch {
	case q.DeadlineMS > s.cfg.MaxDeadline.Milliseconds():
		// Compare before multiplying: a huge deadline_ms would overflow the
		// Duration and wrap to a non-positive, i.e. unbounded, deadline.
		deadline = s.cfg.MaxDeadline
	case q.DeadlineMS > 0:
		deadline = time.Duration(q.DeadlineMS) * time.Millisecond
	}
	if deadline > s.cfg.MaxDeadline {
		deadline = s.cfg.MaxDeadline
	}
	opts.Deadline = deadline
	if s.hookOptions != nil {
		s.hookOptions(opts)
	}
	return opts, nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	ri := requestInfo(r)
	if !s.enter() {
		writeError(w, r, http.StatusServiceUnavailable, "draining", "service is shutting down")
		return
	}
	defer s.wg.Done()
	s.gRequests.Add(1)

	// The body is exactly one request object whose keys are exactly the
	// field names; trailing whitespace (json.Encoder's and curl's newline)
	// is the only thing that may follow it, as json.Unmarshal requires.
	var req QueryRequest
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxQueryBytes))
	if err == nil {
		err = json.Unmarshal(body, &req)
	}
	if err == nil {
		err = exactKeys(body)
	}
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "bad_request", "decode request: %v", err)
		return
	}
	switch req.Kind {
	case "", "exist", "universal", "violations":
	default:
		writeError(w, r, http.StatusBadRequest, "bad_request", "unknown kind %q (want exist, universal, or violations)", req.Kind)
		return
	}
	if req.Kind == "" {
		req.Kind = "exist"
	}
	if ri != nil {
		ri.kind = req.Kind
		ri.graph = req.Graph
	}
	if req.Pattern == "" {
		writeError(w, r, http.StatusBadRequest, "bad_request", "missing pattern")
		return
	}
	entry, ok := s.graph(req.Graph)
	if !ok {
		writeError(w, r, http.StatusNotFound, "unknown_graph", "graph %q is not in the catalog", req.Graph)
		return
	}
	opts, err := s.buildOptions(req.Options)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}

	// Admission: take a solve slot (bounded queue, 429 on overflow) before
	// any solver work. The request context covers the wait, so a client
	// that gives up while queued frees its queue slot immediately.
	release, err := s.adm.acquire(r.Context())
	if err != nil {
		switch {
		case errors.Is(err, errOverloaded), errors.Is(err, errQueueWait):
			if ri != nil {
				ri.admission = "rejected"
			}
			w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
			writeError(w, r, http.StatusTooManyRequests, "overloaded", "%v", err)
		default:
			// Client went away while queued; nothing useful to write.
			if ri != nil {
				ri.admission = "canceled"
			}
			writeError(w, r, StatusClientClosedRequest, "canceled", "client closed request while queued")
		}
		return
	}
	defer release()
	if ri != nil {
		ri.admission = "ok"
	}
	if s.hookAdmitted != nil {
		s.hookAdmitted(r.Context())
	}

	// The solve runs under a cancelable child of the request context:
	// client disconnects propagate automatically, and the cancel endpoint
	// reaches it through the active map, keyed by the in-flight registry id
	// delivered via OnBegin.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	var obsID int64
	opts.OnBegin = func(id int64) {
		obsID = id
		s.activeMu.Lock()
		s.active[id] = cancel
		s.activeMu.Unlock()
	}
	defer func() {
		if obsID != 0 {
			s.activeMu.Lock()
			delete(s.active, obsID)
			s.activeMu.Unlock()
		}
	}()

	t0 := time.Now()
	res, err := s.runQuery(ctx, entry, &req, opts)
	entry.queries.Add(1)
	if ri != nil {
		ri.queryID = obsID
	}
	if err != nil {
		s.writeQueryError(w, r, err)
		return
	}
	if ri != nil {
		ri.cpuNS = res.Stats.CPUTime.Nanoseconds()
		ri.allocBytes = res.Stats.AllocBytes
	}
	out := QueryResponse{
		QueryID:   obsID,
		Graph:     req.Graph,
		Kind:      req.Kind,
		Pattern:   req.Pattern,
		ElapsedMS: float64(time.Since(t0).Microseconds()) / 1e3,
		Answers:   make([]AnswerJSON, 0, len(res.Answers)),
		Stats:     res.Stats,
		Explain:   res.Explain,
	}
	for _, a := range res.Answers {
		aj := AnswerJSON{Vertex: a.Vertex}
		for _, b := range a.Bindings {
			aj.Bindings = append(aj.Bindings, BindingJSON{Param: b.Param, Symbol: b.Symbol})
		}
		for _, st := range a.Witness {
			aj.Witness = append(aj.Witness, StepJSON{From: st.From, Label: st.Label, To: st.To})
		}
		out.Answers = append(out.Answers, aj)
	}
	writeJSON(w, http.StatusOK, out)
}

// requestKeys and optionKeys are the json names of QueryRequest's and
// QueryOptions' fields.
var requestKeys, optionKeys = jsonKeys(QueryRequest{}), jsonKeys(QueryOptions{})

func jsonKeys(v any) map[string]bool {
	t := reflect.TypeOf(v)
	keys := make(map[string]bool, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		keys[name] = true
	}
	return keys
}

// exactKeys rejects a key of the request object, or of its options, that
// is not exactly a field name: a misspelt one, and one that differs only
// in case, which encoding/json would take ("Graph" for "graph", the last
// of two case variants winning). body has already decoded as one
// QueryRequest.
func exactKeys(body []byte) error {
	var top, opts map[string]json.RawMessage
	if err := json.Unmarshal(body, &top); err != nil {
		return err
	}
	for k := range top {
		if !requestKeys[k] {
			return fmt.Errorf("unknown field %q (field names are case-sensitive)", k)
		}
	}
	if raw, ok := top["options"]; ok {
		if err := json.Unmarshal(raw, &opts); err != nil {
			return err
		}
	}
	for k := range opts {
		if !optionKeys[k] {
			return fmt.Errorf("unknown field %q in options (field names are case-sensitive)", k)
		}
	}
	return nil
}

// runQuery dispatches one admitted request to the engine.
func (s *Server) runQuery(ctx context.Context, entry *graphEntry, req *QueryRequest, opts *rpq.Options) (*rpq.Result, error) {
	p, err := rpq.ParsePattern(req.Pattern)
	if err != nil {
		return nil, &patternError{err}
	}
	switch req.Kind {
	case "universal":
		return entry.g.UniversalContext(ctx, p, opts)
	case "violations":
		return entry.g.ViolationsContext(ctx, req.Pattern, req.WithExit, opts)
	default:
		return entry.g.ExistContext(ctx, p, opts)
	}
}

// patternError marks a pattern parse failure for status mapping.
type patternError struct{ err error }

func (e *patternError) Error() string { return e.err.Error() }
func (e *patternError) Unwrap() error { return e.err }

// writeQueryError maps engine errors onto HTTP statuses: parse and lint
// failures, a violations pattern that is no discipline, a start vertex the
// graph lacks and the hybrid algorithm on an existential query are the
// client's fault (400; lint with the RPQ0xx diagnostics as structured
// JSON), deadline breaches are 504 with the partial stats, cancellations
// are 499, a failed universal determinism check with an explicitly
// requested algorithm is 422, and anything else is a 500.
func (s *Server) writeQueryError(w http.ResponseWriter, r *http.Request, err error) {
	var pe *patternError
	var uv *rpq.UnknownVertexError
	switch {
	case errors.As(err, &pe):
		writeError(w, r, http.StatusBadRequest, "bad_pattern", "%v", pe.err)
		return
	case errors.Is(err, rpq.ErrNotDiscipline):
		writeError(w, r, http.StatusBadRequest, "bad_pattern", "%v", err)
		return
	case errors.As(err, &uv), errors.Is(err, rpq.ErrHybridExistential):
		writeError(w, r, http.StatusBadRequest, "bad_request", "%v", err)
		return
	case errors.Is(err, rpq.ErrNondeterministic):
		writeError(w, r, http.StatusUnprocessableEntity, "nondeterministic", "%v", err)
		return
	}
	var le *rpq.LintError
	if errors.As(err, &le) {
		e := apiError{
			Error:       "lint_rejected",
			Message:     le.Error(),
			Diagnostics: le.Diags,
		}
		stampIdentity(r, &e)
		writeJSON(w, http.StatusBadRequest, e)
		return
	}
	var ie *rpq.InterruptError
	if errors.As(err, &ie) {
		code, name := StatusClientClosedRequest, "canceled"
		if errors.Is(err, rpq.ErrDeadline) {
			code, name = http.StatusGatewayTimeout, "deadline_exceeded"
		} else {
			s.gCanceled.Add(1)
		}
		body := map[string]any{
			"error":   name,
			"message": err.Error(),
			"stats":   ie.Stats,
		}
		if ri := requestInfo(r); ri != nil {
			ri.cpuNS = ie.Stats.CPUTime.Nanoseconds()
			ri.allocBytes = ie.Stats.AllocBytes
			body["request_id"] = ri.requestID
			body["trace_id"] = ri.trace.TraceIDString()
		}
		writeJSON(w, code, body)
		return
	}
	writeError(w, r, http.StatusInternalServerError, "internal", "%v", err)
}

// handleListQueries serves the queries executing right now, straight from
// the in-flight registry the solvers report into (the same data as
// /debug/rpq/queries on the observability server), plus the admission view.
func (s *Server) handleListQueries(w http.ResponseWriter, r *http.Request) {
	snaps := rpq.InflightQueries()
	if snaps == nil {
		snaps = []rpq.QuerySnapshot{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"queries":   snaps,
		"admission": s.adm.stats(),
	})
}

// handleCancelQuery cancels one in-flight query by its registry id. The
// canceled query's own request returns 499 with partial stats; this request
// returns whether the id was found.
func (s *Server) handleCancelQuery(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "bad_request", "bad query id %q", r.PathValue("id"))
		return
	}
	s.activeMu.Lock()
	cancel, ok := s.active[id]
	s.activeMu.Unlock()
	if !ok {
		writeError(w, r, http.StatusNotFound, "unknown_query", "query %d is not executing through this service", id)
		return
	}
	cancel()
	writeJSON(w, http.StatusAccepted, map[string]any{"canceling": id})
}

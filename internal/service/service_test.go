package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rpq"
	"rpq/internal/obs"
)

const testGraphPath = "../../testdata/queries/graph.txt"

// newTestServer builds a Server with the repository's CFG fixture preloaded
// under the name "g". Every server records into the process-wide registry,
// so tests read metrics as deltas.
func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	s := NewServer(cfg)
	f, err := os.Open(testGraphPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := s.LoadGraph("g", "text", f); err != nil {
		t.Fatal(err)
	}
	return s
}

func doReq(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// scrapeSample renders reg as /metrics does and returns the value of the
// sample named sample (metric name plus label body); 0 when it is absent.
func scrapeSample(t *testing.T, reg *obs.Registry, sample string) float64 {
	t.Helper()
	var b strings.Builder
	reg.WritePrometheus(&b)
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, sample+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("sample %q: %v", line, err)
			}
			return f
		}
	}
	return 0
}

func decodeBody(t *testing.T, rec *httptest.ResponseRecorder) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("decode response %q: %v", rec.Body.String(), err)
	}
	return m
}

func TestCatalogCRUD(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	raw, err := os.ReadFile(testGraphPath)
	if err != nil {
		t.Fatal(err)
	}

	rec := doReq(h, "PUT", "/api/v1/graphs/cfg-1", string(raw))
	if rec.Code != http.StatusCreated {
		t.Fatalf("PUT graph: %d %s", rec.Code, rec.Body)
	}
	rec = doReq(h, "GET", "/api/v1/graphs", "")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"cfg-1"`) {
		t.Fatalf("GET graphs: %d %s", rec.Code, rec.Body)
	}
	rec = doReq(h, "GET", "/api/v1/graphs/cfg-1", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET graph: %d %s", rec.Code, rec.Body)
	}
	g := decodeBody(t, rec)["graph"].(map[string]any)
	if g["vertices"].(float64) <= 0 || g["edges"].(float64) <= 0 {
		t.Fatalf("graph info missing shape: %v", g)
	}
	rec = doReq(h, "DELETE", "/api/v1/graphs/cfg-1", "")
	if rec.Code != http.StatusNoContent {
		t.Fatalf("DELETE graph: %d %s", rec.Code, rec.Body)
	}
	for _, probe := range []struct{ method, path, body string }{
		{"GET", "/api/v1/graphs/cfg-1", ""},
		{"DELETE", "/api/v1/graphs/cfg-1", ""},
	} {
		rec = doReq(h, probe.method, probe.path, probe.body)
		if rec.Code != http.StatusNotFound {
			t.Fatalf("%s deleted graph: %d %s", probe.method, rec.Code, rec.Body)
		}
	}

	// Invalid names and bodies are client errors, not catalog entries.
	if rec = doReq(h, "PUT", "/api/v1/graphs/bad%2Fname", string(raw)); rec.Code != http.StatusBadRequest {
		t.Fatalf("PUT invalid name: %d %s", rec.Code, rec.Body)
	}
	if rec = doReq(h, "PUT", "/api/v1/graphs/ok?format=nope", string(raw)); rec.Code != http.StatusBadRequest {
		t.Fatalf("PUT unknown format: %d %s", rec.Code, rec.Body)
	}
	if rec = doReq(h, "PUT", "/api/v1/graphs/ok", "not a graph"); rec.Code != http.StatusBadRequest {
		t.Fatalf("PUT junk body: %d %s", rec.Code, rec.Body)
	}
	// An AUT header without a valid initial state is a bad graph, not a
	// panic that drops the connection.
	if rec = doReq(h, "PUT", "/api/v1/graphs/ok?format=aut-universal", "des (0, 0, 0)\n"); rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "bad_graph") {
		t.Fatalf("PUT AUT without states: %d %s", rec.Code, rec.Body)
	}
}

// TestAUTStateBoundRefused: a 16-byte AUT header declaring two million
// states and no transitions is refused as a bad graph before any vertex is
// built, in both transforms.
func TestAUTStateBoundRefused(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	for _, format := range []string{"aut", "aut-universal"} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec := doReq(h, "PUT", "/api/v1/graphs/big?format="+format, "des (0, 0, 2000000)")
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "bad_graph") {
			t.Fatalf("%s: PUT = %d %s, want 400 bad_graph", format, rec.Code, rec.Body)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<20 {
			t.Fatalf("%s: refused load allocated %d bytes", format, alloc)
		}
		if rec = doReq(h, "GET", "/api/v1/graphs/big", ""); rec.Code != http.StatusNotFound {
			t.Fatalf("%s: refused graph is in the catalog: %d %s", format, rec.Code, rec.Body)
		}
	}
}

// TestGoGraphLoader loads real Go source through the "go" format and runs a
// parametric query against the resulting program graph end to end.
func TestGoGraphLoader(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	src := `-- go.mod --
module demo

-- main.go --
package main

func main() {
	ch := make(chan int)
	close(ch)
	ch <- 1
}
`
	rec := doReq(h, "PUT", "/api/v1/graphs/prog?format=go", src)
	if rec.Code != http.StatusCreated {
		t.Fatalf("PUT go graph: %d %s", rec.Code, rec.Body)
	}
	rec = doReq(h, "POST", "/api/v1/query",
		`{"graph":"prog","pattern":"_* close(x) (!def(x))* send(x)"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("query go graph: %d %s", rec.Code, rec.Body)
	}
	body := rec.Body.String()
	if !strings.Contains(body, "demo.main.ch") {
		t.Fatalf("send-after-close answer should bind x to demo.main.ch: %s", body)
	}
	if rec = doReq(h, "PUT", "/api/v1/graphs/bad?format=go", "package broken\nfunc ("); rec.Code != http.StatusBadRequest {
		t.Fatalf("PUT unparsable go source: %d %s", rec.Code, rec.Body)
	}
}

func TestQueryKindsAndCacheStats(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()

	post := func(body string) *httptest.ResponseRecorder {
		return doReq(h, "POST", "/api/v1/query", body)
	}

	// Existential: the Figure-1-style possibly-uninitialized-use query.
	rec := post(`{"graph":"g","kind":"exist","pattern":"(!def(x))* use(x)","options":{"witnesses":true}}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("exist: %d %s", rec.Code, rec.Body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Answers) == 0 || qr.QueryID == 0 {
		t.Fatalf("exist answers=%d id=%d, want answers and a registry id", len(qr.Answers), qr.QueryID)
	}
	for _, a := range qr.Answers {
		if a.Vertex == "" || len(a.Bindings) == 0 {
			t.Fatalf("malformed answer: %+v", a)
		}
		if len(a.Witness) == 0 {
			t.Fatalf("witnesses requested but missing: %+v", a)
		}
	}

	// Universal and violations kinds run through the same endpoint.
	if rec = post(`{"graph":"g","kind":"universal","pattern":"(!use(x))* def(x) _*"}`); rec.Code != http.StatusOK {
		t.Fatalf("universal: %d %s", rec.Code, rec.Body)
	}
	if rec = post(`{"graph":"g","kind":"violations","pattern":"(open(f) (access(f))* close(f))*","with_exit":true}`); rec.Code != http.StatusOK {
		t.Fatalf("violations: %d %s", rec.Code, rec.Body)
	}

	// A repeated pattern must hit the compiled-query cache.
	for i := 0; i < 3; i++ {
		if rec = post(`{"graph":"g","pattern":"(!def(x))* use(x)"}`); rec.Code != http.StatusOK {
			t.Fatalf("repeat %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	rec = doReq(h, "GET", "/api/v1/stats", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d %s", rec.Code, rec.Body)
	}
	cache := decodeBody(t, rec)["cache"].(map[string]any)
	if hits := cache["hits"].(float64); hits < 3 {
		t.Fatalf("cache hits = %v, want >= 3 (stats: %s)", hits, rec.Body)
	}

	// Client errors.
	for name, tc := range map[string]struct {
		body string
		code int
	}{
		"unknown graph": {`{"graph":"nope","pattern":"use(x)"}`, http.StatusNotFound},
		"unknown kind":  {`{"graph":"g","kind":"maybe","pattern":"use(x)"}`, http.StatusBadRequest},
		"missing pat":   {`{"graph":"g"}`, http.StatusBadRequest},
		"bad pattern":   {`{"graph":"g","pattern":"use(x"}`, http.StatusBadRequest},
		"bad algorithm": {`{"graph":"g","pattern":"use(x)","options":{"algorithm":"quantum"}}`, http.StatusBadRequest},
		"bad table":     {`{"graph":"g","pattern":"use(x)","options":{"table":"btree"}}`, http.StatusBadRequest},
		"not even json": {`]`, http.StatusBadRequest},
		// A violations pattern that is no discipline, a start vertex the
		// graph lacks and the hybrid algorithm on a non-universal query are
		// the request's fault, not the server's.
		"not a discipline": {`{"graph":"g","kind":"violations","pattern":"(!def(x))* use(x)"}`, http.StatusBadRequest},
		"unknown start":    {`{"graph":"g","pattern":"use(x)","options":{"start":"no-such-vertex"}}`, http.StatusBadRequest},
		"hybrid exist":     {`{"graph":"g","pattern":"use(x)","options":{"algorithm":"hybrid"}}`, http.StatusBadRequest},
		"hybrid violations": {`{"graph":"g","kind":"violations","pattern":"(def(x) (use(x))*)*","options":{"algorithm":"hybrid"}}`,
			http.StatusBadRequest},
		// The body is one request object with known fields; only
		// whitespace may follow it.
		"trailing data":  {`{"graph":"g","pattern":"use(x)"} trailing`, http.StatusBadRequest},
		"second object":  {`{"graph":"g","pattern":"use(x)"}{}`, http.StatusBadRequest},
		"unknown field":  {`{"graph":"g","pattern":"use(x)","optoins":{"algorithm":"memo"}}`, http.StatusBadRequest},
		"trailing space": {"{\"graph\":\"g\",\"pattern\":\"use(x)\"}\n \t\r\n", http.StatusOK},
		// Keys are exact: encoding/json alone matches them
		// case-insensitively, and of two case variants the last wins.
		"case-variant keys":      {`{"grAph":"g","pAttern":"_* use(x)","options":{"Algorithm":"memo"}}`, http.StatusBadRequest},
		"case-variant duplicate": {`{"graph":"g","Graph":"nope","pattern":"_* use(x)"}`, http.StatusBadRequest},
	} {
		if rec = post(tc.body); rec.Code != tc.code {
			t.Fatalf("%s: %d %s, want %d", name, rec.Code, rec.Body, tc.code)
		}
	}

	rec = doReq(h, "GET", "/api/v1/healthz", "")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"ok"`) {
		t.Fatalf("healthz: %d %s", rec.Code, rec.Body)
	}
}

// TestLintGateRejects pins request validation: an error-severity pattern is
// rejected with 400 and the RPQ0xx diagnostics as structured JSON, before
// any solver work; "no_lint" opts the request out.
func TestLintGateRejects(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()

	rec := doReq(h, "POST", "/api/v1/query", `{"graph":"g","pattern":"!_ use(x)"}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("lint-rejected query: %d %s", rec.Code, rec.Body)
	}
	body := decodeBody(t, rec)
	if body["error"] != "lint_rejected" {
		t.Fatalf("error code = %v, want lint_rejected", body["error"])
	}
	diags, ok := body["diagnostics"].([]any)
	if !ok || len(diags) == 0 {
		t.Fatalf("diagnostics missing: %s", rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "RPQ001") {
		t.Fatalf("diagnostics lack RPQ001: %s", rec.Body)
	}

	// Opting out per request runs the (empty-language) query for real.
	rec = doReq(h, "POST", "/api/v1/query", `{"graph":"g","pattern":"!_ use(x)","options":{"no_lint":true}}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("no_lint query: %d %s", rec.Code, rec.Body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Answers) != 0 {
		t.Fatalf("empty-language pattern returned %d answers", len(qr.Answers))
	}
}

// TestBurstAbove429 pins the acceptance criterion: a burst above the
// admission limit is race-clean — the excess gets fast 429s with
// Retry-After, every admitted query completes, and no goroutines leak.
func TestBurstAbove429(t *testing.T) {
	const (
		maxConcurrent = 2
		maxQueue      = 2
		burst         = 8
	)
	s := newTestServer(t, Config{
		MaxConcurrent: maxConcurrent,
		MaxQueue:      maxQueue,
		QueueWait:     80 * time.Millisecond,
	})
	h := s.Handler()

	admitted := make(chan struct{}, burst)
	release := make(chan struct{})
	s.hookAdmitted = func(ctx context.Context) {
		admitted <- struct{}{}
		<-release
	}

	before := runtime.NumGoroutine()

	var wg sync.WaitGroup
	codes := make(chan int, burst)
	retryAfter := make(chan string, burst)
	// Two requests take the solve slots and hold them via the hook...
	for i := 0; i < maxConcurrent; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := doReq(h, "POST", "/api/v1/query", `{"graph":"g","pattern":"(!def(x))* use(x)"}`)
			codes <- rec.Code
			retryAfter <- rec.Header().Get("Retry-After")
		}()
	}
	for i := 0; i < maxConcurrent; i++ {
		<-admitted
	}
	// ...then the rest of the burst arrives while the service is saturated:
	// up to maxQueue wait out the queue (429 on timeout), the overflow is
	// rejected immediately.
	for i := maxConcurrent; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := doReq(h, "POST", "/api/v1/query", `{"graph":"g","pattern":"(!def(x))* use(x)"}`)
			codes <- rec.Code
			retryAfter <- rec.Header().Get("Retry-After")
		}()
	}
	go func() {
		// Free the held slots once the burst has fully resolved its 429s;
		// the queue-wait (80ms) bounds how long that takes.
		time.Sleep(200 * time.Millisecond)
		close(release)
	}()
	wg.Wait()
	close(codes)
	close(retryAfter)

	counts := map[int]int{}
	for c := range codes {
		counts[c]++
	}
	if counts[http.StatusOK] != maxConcurrent || counts[http.StatusTooManyRequests] != burst-maxConcurrent {
		t.Fatalf("burst outcome = %v, want %d OK and %d 429", counts, maxConcurrent, burst-maxConcurrent)
	}
	sawRetryAfter := false
	for ra := range retryAfter {
		if ra != "" {
			sawRetryAfter = true
		}
	}
	if !sawRetryAfter {
		t.Fatal("no 429 carried a Retry-After header")
	}

	st := s.adm.stats()
	if st["active"] != 0 || st["queued"] != 0 {
		t.Fatalf("admission not drained: %v", st)
	}
	if st["admitted"] != maxConcurrent || st["rejected"]+st["queue_timeouts"] != burst-maxConcurrent {
		t.Fatalf("admission accounting: %v", st)
	}

	// Goroutine hygiene: everything the burst spawned must wind down.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before burst, %d after", before, runtime.NumGoroutine())
}

// progressGate blocks the solver at its first progress snapshot until
// released, holding a query deterministically in flight. Its hook runs the
// query under the enumeration algorithm, which reports progress before each
// substitution and checks for cancellation between substitutions, so a
// query canceled or past its deadline while held stops at the next one
// (the test graph gives x two substitutions).
type progressGate struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func newProgressGate() *progressGate {
	return &progressGate{entered: make(chan struct{}), release: make(chan struct{})}
}

// hook installs the gate on a query's options (Server.hookOptions).
func (g *progressGate) hook(o *rpq.Options) {
	o.Algorithm = rpq.Enumerate
	o.Progress = func(rpq.Progress) {
		g.once.Do(func() {
			close(g.entered)
			<-g.release
		})
	}
}

// TestClientDisconnectCancelsQuery pins satellite 4: a dropped HTTP request
// mid-solve cancels the query with a typed interrupt, frees its admission
// slot, and leaves the latency histogram consistent.
func TestClientDisconnectCancelsQuery(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: 1})
	h := s.Handler()
	gate := newProgressGate()
	s.hookOptions = gate.hook
	queriesBefore := scrapeSample(t, obs.Default(), "rpq_query_seconds_count")
	canceledBefore := s.gCanceled.Value()

	ctx, cancelReq := context.WithCancel(context.Background())
	req := httptest.NewRequest("POST", "/api/v1/query",
		strings.NewReader(`{"graph":"g","pattern":"(!def(x))* use(x)"}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(rec, req)
	}()

	<-gate.entered // the solver is mid-flight, holding the only slot
	if st := s.adm.stats(); st["active"] != 1 {
		t.Fatalf("admission active = %d, want 1", st["active"])
	}
	cancelReq() // client goes away
	// Give the canceler's watcher goroutine a beat to latch the flag the
	// solver polls; the solve is tiny, so releasing too early would let it
	// finish before the cancellation lands.
	time.Sleep(50 * time.Millisecond)
	close(gate.release)
	<-done

	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("dropped request: %d %s, want %d", rec.Code, rec.Body, StatusClientClosedRequest)
	}
	body := decodeBody(t, rec)
	if body["error"] != "canceled" {
		t.Fatalf("error code = %v, want canceled", body["error"])
	}
	if _, ok := body["stats"]; !ok {
		t.Fatalf("canceled response lacks partial stats: %s", rec.Body)
	}

	// The slot is free again, the cancel map is empty, and the latency
	// histogram counted exactly one (canceled) query.
	if st := s.adm.stats(); st["active"] != 0 || st["queued"] != 0 {
		t.Fatalf("slot not freed after disconnect: %v", st)
	}
	s.activeMu.Lock()
	nActive := len(s.active)
	s.activeMu.Unlock()
	if nActive != 0 {
		t.Fatalf("active cancel map has %d stale entries", nActive)
	}
	if n := scrapeSample(t, obs.Default(), "rpq_query_seconds_count") - queriesBefore; n != 1 {
		t.Fatalf("latency histogram count advanced by %v, want 1", n)
	}
	if n := s.gCanceled.Value() - canceledBefore; n != 1 {
		t.Fatalf("canceled counter advanced by %d, want 1", n)
	}

	// The freed slot admits the next query immediately.
	s.hookOptions = nil
	if rec := doReq(h, "POST", "/api/v1/query", `{"graph":"g","pattern":"use(x)"}`); rec.Code != http.StatusOK {
		t.Fatalf("query after disconnect: %d %s", rec.Code, rec.Body)
	}
}

// TestCancelEndpoint drives the operator path: list the in-flight query,
// cancel it by id, and observe its request return 499.
func TestCancelEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	gate := newProgressGate()
	s.hookOptions = gate.hook

	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/api/v1/query",
			strings.NewReader(`{"graph":"g","pattern":"(!def(x))* use(x)"}`)))
	}()
	<-gate.entered

	// The in-flight listing shows the query; take its id.
	lrec := doReq(h, "GET", "/api/v1/queries", "")
	if lrec.Code != http.StatusOK {
		t.Fatalf("list queries: %d %s", lrec.Code, lrec.Body)
	}
	var listing struct {
		Queries []struct {
			ID int64 `json:"id"`
		} `json:"queries"`
	}
	if err := json.Unmarshal(lrec.Body.Bytes(), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Queries) != 1 {
		t.Fatalf("in-flight listing has %d queries, want 1: %s", len(listing.Queries), lrec.Body)
	}
	id := listing.Queries[0].ID

	crec := doReq(h, "POST", fmt.Sprintf("/api/v1/queries/%d/cancel", id), "")
	if crec.Code != http.StatusAccepted {
		t.Fatalf("cancel: %d %s", crec.Code, crec.Body)
	}
	time.Sleep(50 * time.Millisecond) // let the cancellation latch before the solver resumes
	close(gate.release)
	<-done
	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("canceled query request: %d %s, want %d", rec.Code, rec.Body, StatusClientClosedRequest)
	}

	// Unknown and malformed ids are client errors.
	if crec = doReq(h, "POST", fmt.Sprintf("/api/v1/queries/%d/cancel", id), ""); crec.Code != http.StatusNotFound {
		t.Fatalf("cancel finished query: %d %s", crec.Code, crec.Body)
	}
	if crec = doReq(h, "POST", "/api/v1/queries/banana/cancel", ""); crec.Code != http.StatusBadRequest {
		t.Fatalf("cancel junk id: %d %s", crec.Code, crec.Body)
	}
}

// TestShutdownDrains pins graceful shutdown: new work is rejected with 503
// while in-flight queries finish, and Shutdown returns only after they do.
func TestShutdownDrains(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	gate := newProgressGate()
	s.hookOptions = gate.hook

	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/api/v1/query",
			strings.NewReader(`{"graph":"g","pattern":"(!def(x))* use(x)"}`)))
	}()
	<-gate.entered

	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- s.Shutdown(context.Background()) }()
	waitUntil(t, s.Draining)

	// Draining: new queries and graph loads bounce with 503.
	if r := doReq(h, "POST", "/api/v1/query", `{"graph":"g","pattern":"use(x)"}`); r.Code != http.StatusServiceUnavailable {
		t.Fatalf("query while draining: %d %s", r.Code, r.Body)
	}
	if r := doReq(h, "PUT", "/api/v1/graphs/late", "s0\n"); r.Code != http.StatusServiceUnavailable {
		t.Fatalf("load while draining: %d %s", r.Code, r.Body)
	}

	close(gate.release)
	<-done
	if rec.Code != http.StatusOK {
		t.Fatalf("in-flight query during drain: %d %s, want 200", rec.Code, rec.Body)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown = %v, want nil (drained without cancels)", err)
	}
}

// TestShutdownCancelsOnDeadline pins the forced path: when the drain budget
// expires, Shutdown cancels the stragglers and still waits them out.
func TestShutdownCancelsOnDeadline(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	gate := newProgressGate()
	s.hookOptions = gate.hook

	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/api/v1/query",
			strings.NewReader(`{"graph":"g","pattern":"(!def(x))* use(x)"}`)))
	}()
	<-gate.entered

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- s.Shutdown(ctx) }()

	// Let the drain budget expire (CancelAll fires), then unblock the
	// solver; it must observe the cancellation at its next check.
	time.Sleep(60 * time.Millisecond)
	close(gate.release)
	<-done
	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("straggler query: %d %s, want %d", rec.Code, rec.Body, StatusClientClosedRequest)
	}
	if err := <-shutdownErr; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want deadline exceeded", err)
	}
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached within 2s")
}

// TestDeadlineMapsTo504 pins the deadline path end to end: a request-level
// deadline_ms that the solve cannot meet returns 504 with partial stats.
func TestDeadlineMapsTo504(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	gate := newProgressGate()
	s.hookOptions = gate.hook

	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/api/v1/query",
			strings.NewReader(`{"graph":"g","pattern":"(!def(x))* use(x)","options":{"deadline_ms":20}}`)))
	}()
	<-gate.entered
	time.Sleep(40 * time.Millisecond) // let the 20ms deadline expire
	close(gate.release)
	<-done
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("deadline query: %d %s, want 504", rec.Code, rec.Body)
	}
	body := decodeBody(t, rec)
	if body["error"] != "deadline_exceeded" {
		t.Fatalf("error code = %v, want deadline_exceeded", body["error"])
	}
	if _, ok := body["stats"]; !ok {
		t.Fatalf("deadline response lacks partial stats: %s", rec.Body)
	}
}

// TestDeadlineClampedToMax pins that every deadline_ms above the cap runs
// with MaxDeadline, including values whose conversion to a Duration would
// overflow to a non-positive (unbounded) deadline.
func TestDeadlineClampedToMax(t *testing.T) {
	s := newTestServer(t, Config{MaxDeadline: time.Minute})
	h := s.Handler()
	var got time.Duration
	s.hookOptions = func(o *rpq.Options) { got = o.Deadline }
	for _, c := range []struct {
		ms   int64
		want time.Duration
	}{
		{50, 50 * time.Millisecond},
		{60_000, time.Minute},
		{60_001, time.Minute},
		{9223372036855, time.Minute},       // ×1e6 wraps to about −2562047h
		{9223372036854775807, time.Minute}, // ×1e6 wraps to −1ms
	} {
		body := fmt.Sprintf(`{"graph":"g","pattern":"use(x)","options":{"deadline_ms":%d}}`, c.ms)
		if rec := doReq(h, "POST", "/api/v1/query", body); rec.Code != http.StatusOK {
			t.Fatalf("deadline_ms=%d: %d %s", c.ms, rec.Code, rec.Body)
		}
		if got != c.want {
			t.Errorf("deadline_ms=%d: opts.Deadline = %v, want %v", c.ms, got, c.want)
		}
	}
}

// TestWorkersOptionIgnored pins that options.workers, which untrusted
// clients control, is accepted and ignored: a request with a huge value
// must get the workers-0 reply and must not allocate memory in proportion
// to the value.
func TestWorkersOptionIgnored(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	query := func(workers int) []AnswerJSON {
		t.Helper()
		body := fmt.Sprintf(`{"graph":"g","pattern":"(!def(x))* use(x)","options":{"algorithm":"enum","workers":%d}}`, workers)
		rec := doReq(h, "POST", "/api/v1/query", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("workers=%d: %d %s", workers, rec.Code, rec.Body)
		}
		var qr QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
			t.Fatal(err)
		}
		return qr.Answers
	}
	want := query(0)
	if len(want) == 0 {
		t.Fatal("workers=0 query returned no answers")
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := query(1_000_000)
	runtime.ReadMemStats(&after)

	if !reflect.DeepEqual(got, want) {
		t.Fatalf("workers=1000000 answers differ from workers=0:\n got %+v\nwant %+v", got, want)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<20 {
		t.Fatalf("workers=1000000 request allocated %d MB, want < 64 MB", grew>>20)
	}
}

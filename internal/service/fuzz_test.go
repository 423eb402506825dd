package service

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// FuzzLoadGraph feeds one untrusted body to every graph format rpqd accepts
// (PUT /api/v1/graphs/{name}?format=…, rpqd -load). A loader may reject the
// body, but must not panic, and an accepted graph must describe itself the
// way the catalog does (GraphInfo reads the start vertex's name).
func FuzzLoadGraph(f *testing.F) {
	for _, path := range []string{testGraphPath, "../../testdata/goprog/uninit/uninit.go"} {
		body, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(body))
	}
	f.Add("des (0, 4, 3)\n(0, \"open\", 1)\n(1, \"i\", 1)\n(1, \"send(a, b)\", 2)\n(2, \"close\", 0)\n")
	f.Add(`<a><b lang="en"><b><c/></b></b></a>`)
	f.Add("-- go.mod --\nmodule demo\n-- a.go --\npackage main\n\nfunc main() { var x int; _ = x }\n")
	f.Fuzz(func(t *testing.T, body string) {
		for _, format := range []string{"text", "aut", "aut-universal", "xml", "go"} {
			g, _, err := loadGraph(format, strings.NewReader(body))
			if err != nil {
				continue
			}
			// info names the start vertex, which must therefore exist.
			(&graphEntry{name: "fuzz", g: g, format: format}).info()
		}
	})
}

// FuzzQueryRequest sends one untrusted body to POST /api/v1/query against
// the catalog fixture graph "g", with deadlines short enough that any
// pattern the fuzzer finds ends quickly. The handler must not panic; a 2xx
// reply must be a query response, and every other reply the documented
// error body: a JSON object with a stable "error" code and the request's
// identity. No body may cause a 500: a request the engine cannot serve is
// the client's error, reported with a 4xx.
func FuzzQueryRequest(f *testing.F) {
	queries, err := filepath.Glob("../../testdata/queries/*.rpq")
	if err != nil || len(queries) == 0 {
		f.Fatalf("no query fixtures: %v", err)
	}
	for _, path := range queries {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		var lines []string
		for _, l := range strings.Split(string(raw), "\n") {
			if l = strings.TrimSpace(l); l != "" && !strings.HasPrefix(l, "#") {
				lines = append(lines, l)
			}
		}
		pattern, _ := json.Marshal(strings.Join(lines, " "))
		for _, kind := range []string{"exist", "universal", "violations"} {
			f.Add(`{"graph":"g","kind":"` + kind + `","pattern":` + string(pattern) + `}`)
		}
	}
	// The shapes of the repository benchmark's svc-light and svc-heavy
	// requests.
	f.Add(`{"graph":"g","kind":"exist","pattern":"_* def(a) (!def(b))* use(c,_)","options":{"algorithm":"memo"}}`)
	f.Add(`{"graph":"g","kind":"exist","pattern":"_* use(x,l) (!def(x))* entry()","options":{"algorithm":"precomp","table":"nested","backward":true}}`)
	f.Add(`{"graph":"g","kind":"exist","pattern":"(!def(x))* use(x,_)","options":{"algorithm":"enum","workers":2}}`)
	f.Add(`{"graph":"g","kind":"universal","pattern":"(!def(x))* use(x,_)","options":{"algorithm":"hybrid","explain":true}}`)
	f.Add(`{"graph":"g","pattern":"(!def(x))* use(x)","options":{"witnesses":true,"compact":true,"scc_order":true,"start":"n1","deadline_ms":5}}`)
	f.Add(`{"graph":"g","kind":"violations","pattern":"(def(x) (use(x))*)*","with_exit":true,"options":{"no_lint":true}}`)
	f.Add(`{"graph":"nope","pattern":"use(x)"}`)
	f.Add(`{"graph":"g","pattern":"!_ use(x)"}`)
	f.Add(`{"graph":"g","pattern":"use(x)","options":{"algorithm":"fast"}}`)
	f.Add(`{"graph":"g","pattern":"use(x)"} trailing`)
	f.Add(`{"graph":"g","pattern":"use(x)","optoins":{}}`)
	f.Add(`{"graph":"g","kind":"violations","pattern":"(!def(x))* use(x)"}`)
	f.Add(`{"graph":"g","pattern":"use(x)","options":{"start":"no-such-vertex"}}`)
	f.Add(`{"graph":"g","pattern":"use(x)","options":{"algorithm":"hybrid"}}`)
	f.Add(`{"grAph":"g","pAttern":"_* use(x)","options":{"Algorithm":"memo"}}`)
	f.Add(`{"graph":"g","Graph":"nope","pattern":"_* use(x)"}`)
	f.Add(`[]`)
	f.Add(``)

	s := newTestServer(f, Config{
		MaxConcurrent:   1,
		QueueWait:       50 * time.Millisecond,
		DefaultDeadline: 50 * time.Millisecond,
		MaxDeadline:     100 * time.Millisecond,
	})
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body string) {
		rec := doReq(h, "POST", "/api/v1/query", body)
		if rec.Code >= 200 && rec.Code < 300 {
			var resp QueryResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("%d reply is not a query response: %v\n%s", rec.Code, err, rec.Body)
			}
			return
		}
		if rec.Code == http.StatusInternalServerError {
			t.Fatalf("500 reply: %s", rec.Body)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%d reply Content-Type %q, want application/json", rec.Code, ct)
		}
		var e map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatalf("%d reply is not JSON: %v\n%s", rec.Code, err, rec.Body)
		}
		for _, key := range []string{"error", "request_id", "trace_id"} {
			if v, _ := e[key].(string); v == "" {
				t.Fatalf("%d error body has no %q string: %s", rec.Code, key, rec.Body)
			}
		}
		if rec.Code == http.StatusTooManyRequests && rec.Header().Get("Retry-After") == "" {
			t.Fatalf("429 without Retry-After: %s", rec.Body)
		}
	})
}

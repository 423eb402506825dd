package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"rpq"
)

// runAsRpqd is the environment variable under which the test binary runs
// main instead of the tests, so TestRpqdProcess drives a real rpqd process
// without a separate build step.
const runAsRpqd = "RPQD_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsRpqd) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// heavyQuery interleaves three parameters over the heavy graph's symbols, a
// substitution space large enough to hold a solve slot for a few hundred
// milliseconds while the trailing literals keep the answer set modest.
const heavyQuery = `{"graph":"heavy","pattern":"(use(x) | use(y) | use(z))* use(x) use(y) use(z)"}`

// heavyGraph is a deterministic pseudo-random use graph: a cycle through
// every vertex plus four random out-edges each, over twelve symbols.
func heavyGraph() string {
	const vertices, degree, symbols = 1000, 5, 12
	var b strings.Builder
	fmt.Fprintln(&b, "start v0")
	seed := uint64(0x9e3779b97f4a7c15)
	next := func(n int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int((seed >> 33) % uint64(n))
	}
	for v := 0; v < vertices; v++ {
		fmt.Fprintf(&b, "edge v%d use(s%d) v%d\n", v, next(symbols), (v+1)%vertices)
		for d := 1; d < degree; d++ {
			fmt.Fprintf(&b, "edge v%d use(s%d) v%d\n", v, next(symbols), next(vertices))
		}
	}
	return b.String()
}

// call sends one request and returns the status and body; transport errors
// come back as status 0 so goroutines can report them without t.Fatal.
func call(method, url, body string) (int, string) {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		return 0, err.Error()
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err.Error()
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(raw)
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	code, body := call("GET", url, "")
	if code != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, code, body)
	}
	if err := json.Unmarshal([]byte(body), v); err != nil {
		t.Fatalf("GET %s: %v: %s", url, err, body)
	}
}

// TestRpqdProcess covers what only a real rpqd process shows: a CPU profile
// from /debug/pprof/profile whose rpq_kind=exist samples go tool pprof
// attributes to solver frames, the service's gauges on the observability
// listener, the SIGTERM drain with a query in flight, and the access log file.
func TestRpqdProcess(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "access.ndjson")
	cmd := exec.Command(os.Args[0],
		"-addr", "127.0.0.1:0",
		"-obs", "127.0.0.1:0",
		"-load", "g=../../testdata/queries/graph.txt",
		"-log", logPath,
		"-log-format", "json",
		"-slowlog", filepath.Join(dir, "slow.ndjson"),
		"-drain-timeout", "1m",
	)
	cmd.Env = append(os.Environ(), runAsRpqd+"=1")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Only the two address lines at boot matter; the buffer holds every
	// line rpqd prints before them, and later lines are dropped.
	lines := make(chan string, 16)
	exited := make(chan struct{})
	var waitErr error
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			default:
			}
		}
		waitErr = cmd.Wait()
		close(exited)
	}()
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-exited
	})

	var base, obsBase string
	for boot := time.After(30 * time.Second); base == "" || obsBase == ""; {
		select {
		case l := <-lines:
			if rest, ok := strings.CutPrefix(l, "rpqd observability on "); ok {
				obsBase = rest
			}
			if rest, ok := strings.CutPrefix(l, "rpqd listening on "); ok {
				base = rest
			}
		case <-exited:
			t.Fatalf("rpqd exited before listening: %v", waitErr)
		case <-boot:
			t.Fatal("rpqd did not come up within 30s")
		}
	}
	if code, body := call("PUT", base+"/api/v1/graphs/heavy", heavyGraph()); code != http.StatusCreated {
		t.Fatalf("PUT heavy graph: %d %s", code, body)
	}

	// CPU profile: fetch /debug/pprof/profile while exist queries run, and
	// check its bytes with go tool pprof, which must attribute the
	// rpq_kind=exist samples to solver frames. Sampling is statistical, so a
	// profile that caught no solver sample is taken again until the deadline.
	profPath := filepath.Join(dir, "cpu.pb.gz")
	var top []byte
	for deadline := time.Now().Add(time.Minute); !strings.Contains(string(top), "rpq/internal/core."); {
		if time.Now().After(deadline) {
			t.Fatalf("no CPU profile attributed rpq_kind=exist samples to rpq/internal/core within 1m; last go tool pprof output:\n%s", top)
		}
		stop, queried := make(chan struct{}), make(chan string, 1)
		go func() {
			for {
				select {
				case <-stop:
					queried <- ""
					return
				default:
				}
				if code, body := call("POST", base+"/api/v1/query", heavyQuery); code != http.StatusOK {
					queried <- fmt.Sprintf("exist query: %d %s", code, body)
					return
				}
			}
		}()
		code, raw := call("GET", obsBase+"/debug/pprof/profile?seconds=1", "")
		close(stop)
		if msg := <-queried; msg != "" {
			t.Fatal(msg)
		}
		if code != http.StatusOK || raw == "" {
			t.Fatalf("GET /debug/pprof/profile: %d (%d bytes) %.200s", code, len(raw), raw)
		}
		if err := os.WriteFile(profPath, []byte(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		top, _ = exec.Command("go", "tool", "pprof", "-top", "-cum", "-tagfocus=rpq_kind=exist", profPath).CombinedOutput()
	}

	// The service's admission counters reach the observability listener,
	// and after real traced queries the whole body is valid text exposition
	// 0.0.4, the format the handler declares.
	code, metrics := call("GET", obsBase+"/metrics", "")
	if code != http.StatusOK || !strings.Contains(metrics, "\nrpq_svc_admitted_total ") {
		t.Fatalf("%s/metrics: %d, no rpq_svc_admitted_total sample", obsBase, code)
	}
	if !strings.Contains(metrics, "\n# TYPE rpq_http_slo_good ") {
		t.Fatalf("%s/metrics: no rpq_http_slo_good family under the default -slo", obsBase)
	}
	for _, problem := range checkExposition(metrics) {
		t.Errorf("/metrics: %s", problem)
	}

	// Drain: SIGTERM with a query in flight flips readyz to 503 while
	// healthz stays 200; the query still completes and rpqd exits 0.
	drained := make(chan string, 1)
	go func() {
		code, body := call("POST", base+"/api/v1/query", heavyQuery)
		drained <- fmt.Sprintf("%d %s", code, body)
	}()
	for inFlight := false; !inFlight; {
		select {
		case got := <-drained:
			t.Fatalf("query finished before it was seen in flight: %s", got)
		default:
		}
		var listing struct {
			Queries []json.RawMessage `json:"queries"`
		}
		getJSON(t, base+"/api/v1/queries", &listing)
		inFlight = len(listing.Queries) > 0
		time.Sleep(time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		code, body := call("GET", base+"/api/v1/readyz", "")
		if code == http.StatusServiceUnavailable && strings.Contains(body, "not_ready") {
			break
		}
		if code != http.StatusOK || i == 5000 {
			t.Fatalf("readyz during drain (poll %d): %d %s", i, code, body)
		}
		time.Sleep(time.Millisecond)
	}
	if code, body := call("GET", base+"/api/v1/healthz", ""); code != http.StatusOK {
		t.Fatalf("healthz during drain: %d %s", code, body)
	}
	if got := <-drained; !strings.HasPrefix(got, "200 ") {
		t.Fatalf("query in flight at SIGTERM: %s", got)
	}
	select {
	case <-exited:
		if waitErr != nil {
			t.Fatalf("rpqd exit after drain: %v", waitErr)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("rpqd did not exit within 30s of draining")
	}

	// Access log: every line parses, and the graph PUT left an audit line.
	logRaw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	audited := false
	for n, line := range bytes.Split(bytes.TrimSpace(logRaw), []byte("\n")) {
		var l struct {
			Stream, Action, Graph, Result string
		}
		if err := json.Unmarshal(line, &l); err != nil {
			t.Fatalf("access log line %d: %v: %s", n+1, err, line)
		}
		if l.Stream == "audit" && l.Action == "load" && l.Graph == "heavy" && l.Result == "ok" {
			audited = true
		}
	}
	if !audited {
		t.Fatalf("no audit line for the heavy-graph PUT:\n%s", logRaw)
	}
}

var (
	// sampleLine is name[{labels}] value [timestamp], the only sample form
	// of text exposition 0.0.4.
	sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)(?: -?[0-9]+)?$`)
	labelPair  = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"(?:,|$)`)
	typeLine   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$`)
)

// checkExposition lists every way body departs from Prometheus text
// exposition 0.0.4: a line that is not # HELP, # TYPE or a sample; a family
// with no # TYPE before its first sample, or with more than one; a
// monotonic family (every _total family, and rpq_http_slo_good) not typed
// counter; and a histogram whose cumulative _bucket counts fall as le rises
// or do not end at le="+Inf" equal to _count.
func checkExposition(body string) []string {
	var problems []string
	types := map[string]string{}
	type series struct {
		lastLE, lastCount float64
		inf, count        float64
		sawInf, sawCount  bool
	}
	hists := map[string]*series{}
	var order []string
	for n, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		bad := func(format string, args ...any) {
			problems = append(problems, fmt.Sprintf("line %d %q: ", n+1, line)+fmt.Sprintf(format, args...))
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "#") {
			m := typeLine.FindStringSubmatch(line)
			if m == nil {
				bad("neither # HELP, # TYPE nor a sample")
				continue
			}
			if _, dup := types[m[1]]; dup {
				bad("second # TYPE for family %s", m[1])
			}
			if (strings.HasSuffix(m[1], "_total") || m[1] == "rpq_http_slo_good") && m[2] != "counter" {
				bad("monotonic family %s typed %s, want counter", m[1], m[2])
			}
			types[m[1]] = m[2]
			continue
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			bad("neither # HELP, # TYPE nor a sample")
			continue
		}
		name, value := m[1], m[3]
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			bad("value %q: %v", value, err)
			continue
		}
		var labels []string
		le := ""
		for rest := m[2]; rest != ""; {
			p := labelPair.FindStringSubmatch(rest)
			if p == nil {
				bad("malformed labels %q", m[2])
				break
			}
			rest = rest[len(p[0]):]
			if p[1] == "le" {
				le = p[2]
			} else {
				labels = append(labels, p[1]+"="+p[2])
			}
		}
		fam, suffix := name, ""
		if _, ok := types[name]; !ok {
			for _, sfx := range []string{"_bucket", "_sum", "_count"} {
				if base, ok := strings.CutSuffix(name, sfx); ok && types[base] != "" {
					fam, suffix = base, sfx
				}
			}
		}
		typ, ok := types[fam]
		if !ok {
			bad("sample before its family's # TYPE")
			continue
		}
		if typ != "histogram" || suffix == "_sum" {
			continue
		}
		key := fam + "{" + strings.Join(labels, ",") + "}"
		h := hists[key]
		if h == nil {
			h = &series{lastLE: math.Inf(-1)}
			hists[key] = h
			order = append(order, key)
		}
		switch suffix {
		case "_bucket":
			edge, err := strconv.ParseFloat(le, 64)
			switch {
			case err != nil:
				bad("bucket le %q: %v", le, err)
			case h.sawInf || edge <= h.lastLE:
				bad("le %s does not rise", le)
			case v < h.lastCount:
				bad("bucket count falls from %v to %v", h.lastCount, v)
			}
			h.lastLE, h.lastCount = edge, v
			if math.IsInf(edge, 1) {
				h.inf, h.sawInf = v, true
			}
		case "_count":
			h.count, h.sawCount = v, true
		default:
			bad("histogram sample without a _bucket, _sum or _count suffix")
		}
	}
	for _, key := range order {
		switch h := hists[key]; {
		case !h.sawInf:
			problems = append(problems, key+`: no le="+Inf" bucket`)
		case !h.sawCount || h.inf != h.count:
			problems = append(problems, fmt.Sprintf(`%s: le="+Inf" bucket %v != _count %v`, key, h.inf, h.count))
		}
	}
	return problems
}

// TestSLOFlagsSet pins the -slo syntax: route:objective[:latency] with a
// route the service serves, an objective strictly inside (0,1), and a
// positive latency threshold.
func TestSLOFlagsSet(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want *rpq.SLO // nil: Set must reject in
	}{
		{"query:0.999", &rpq.SLO{Route: "query", Objective: 0.999}},
		{"query:0.99:30s", &rpq.SLO{Route: "query", Objective: 0.99, LatencyThreshold: 30 * time.Second}},
		{"graph_load:0.5:250ms", &rpq.SLO{Route: "graph_load", Objective: 0.5, LatencyThreshold: 250 * time.Millisecond}},
		{"qurey:0.99", nil},
		{"Query:0.99", nil},
		{"query", nil},
		{"query:", nil},
		{"query:0.9:1s:x", nil},
		{":0.9", nil},
		{":0.9:1s", nil},
		{"query:0", nil},
		{"query:1", nil},
		{"query:1.5", nil},
		{"query:-0.5", nil},
		{"query:NaN", nil},
		{"query:nan", nil},
		{"query:Inf", nil},
		{"query:-Inf", nil},
		{"query:high", nil},
		{"query:0.9:soon", nil},
		{"query:0.9:0s", nil},
		{"query:0.9:-1s", nil},
	} {
		var s sloFlags
		err := s.Set(tc.in)
		switch {
		case tc.want == nil && err == nil:
			t.Errorf("Set(%q) accepted %+v, want an error", tc.in, s)
		case tc.want != nil && err != nil:
			t.Errorf("Set(%q): %v", tc.in, err)
		case tc.want != nil && (len(s) != 1 || s[0] != *tc.want):
			t.Errorf("Set(%q) = %+v, want [%+v]", tc.in, s, *tc.want)
		}
	}
}

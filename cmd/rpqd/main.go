// Command rpqd is the long-lived parametric-RPQ query service: a
// JSON-over-HTTP daemon exposing a named graph catalog, query submission
// (existential / universal / violations) against catalog entries, and
// in-flight query listing and cancellation, with a shared compiled-query
// cache and admission control in front of the solver. An optional second
// listener serves the observability plane (/metrics with one histogram
// family per latency and the go_* runtime gauges read at scrape time,
// /debug/rpq/queries, /debug/pprof/; the index is at /debug/rpq/); CPU
// profiles are taken on demand from /debug/pprof/profile, whose samples
// carry each query's pprof labels (rpq_kind, variant, table, rpq_trace_id).
// Each -slo objective adds the rpq_http_slo_total/rpq_http_slo_good
// counters for its route to /metrics. On SIGINT/SIGTERM the daemon drains:
// new requests get 503, in-flight queries run up to -drain-timeout and are
// then canceled, and only afterwards does the observability plane close, so
// the last queries' metrics remain scrapeable to the end.
//
// See docs/service.md for the API reference.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rpq"
	"rpq/internal/service"
)

// loadFlags collects repeated -load name=path or -load name=format:path.
type loadFlags []loadSpec

type loadSpec struct{ name, format, path string }

func (l *loadFlags) String() string { return fmt.Sprint(*l) }

func (l *loadFlags) Set(v string) error {
	name, rest, ok := strings.Cut(v, "=")
	if !ok || name == "" || rest == "" {
		return fmt.Errorf("want name=path or name=format:path, got %q", v)
	}
	spec := loadSpec{name: name, path: rest}
	if format, path, ok := strings.Cut(rest, ":"); ok {
		switch format {
		case "text", "aut", "aut-universal", "xml", "go":
			spec.format, spec.path = format, path
		}
	}
	*l = append(*l, spec)
	return nil
}

// sloFlags collects repeated -slo route:objective[:latency] specs.
type sloFlags []rpq.SLO

func (s *sloFlags) String() string { return fmt.Sprint(*s) }

func (s *sloFlags) Set(v string) error {
	parts := strings.Split(v, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return fmt.Errorf("want route:objective or route:objective:latency, got %q", v)
	}
	if routes := service.RouteNames(); !slices.Contains(routes, parts[0]) {
		return fmt.Errorf("unknown route %q (want one of %s)", parts[0], strings.Join(routes, ", "))
	}
	// Written as a negated range so NaN, which every comparison rejects,
	// fails it too.
	obj, err := strconv.ParseFloat(parts[1], 64)
	if err != nil || !(obj > 0 && obj < 1) {
		return fmt.Errorf("objective must be a fraction in (0,1), got %q", parts[1])
	}
	slo := rpq.SLO{Route: parts[0], Objective: obj}
	if len(parts) == 3 {
		thr, err := time.ParseDuration(parts[2])
		if err != nil || thr <= 0 {
			return fmt.Errorf("latency threshold must be a positive duration, got %q", parts[2])
		}
		slo.LatencyThreshold = thr
	}
	*s = append(*s, slo)
	return nil
}

// openLogger builds the structured service logger from -log / -log-format.
// Returns nil (logging disabled) for an empty path; "-" means stdout.
func openLogger(path, format string) (*slog.Logger, io.Closer, error) {
	if path == "" {
		return nil, nil, nil
	}
	var w io.Writer = os.Stdout
	var c io.Closer
	if path != "-" {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, err
		}
		w, c = f, f
	}
	var h slog.Handler
	switch format {
	case "", "json":
		h = slog.NewJSONHandler(w, nil)
	case "text":
		h = slog.NewTextHandler(w, nil)
	default:
		return nil, nil, fmt.Errorf("unknown log format %q (want json or text)", format)
	}
	return slog.New(h), c, nil
}

func main() {
	var loads loadFlags
	var slos sloFlags
	var (
		addr          = flag.String("addr", "127.0.0.1:8090", "API listen address")
		obsAddr       = flag.String("obs", "", "serve /metrics, /debug/rpq/queries and /debug/pprof/ on this address (empty = no observability listener)")
		maxConcurrent = flag.Int("max-concurrent", 0, "max concurrent solves (0 = NumCPU)")
		maxQueue      = flag.Int("max-queue", 0, "max requests waiting for a solve slot (0 = 2x max-concurrent)")
		queueWait     = flag.Duration("queue-wait", 0, "max time a request waits for a slot before 429 (0 = 5s)")
		deadline      = flag.Duration("deadline", 0, "default per-query deadline (0 = 30s)")
		maxDeadline   = flag.Duration("max-deadline", 0, "cap on per-request deadline_ms (0 = 2m)")
		cacheSize     = flag.Int("cache-size", 0, "compiled-query cache capacity (0 = 128)")
		noLint        = flag.Bool("no-lint", false, "disable the lint request-validation gate")
		drainTimeout  = flag.Duration("drain-timeout", 10*time.Second, "how long shutdown waits for in-flight queries before canceling them")
		slowLogPath   = flag.String("slowlog", "", "append NDJSON records of slow and interrupted queries to this file")
		slowThreshold = flag.Duration("slow", time.Second, "slow-query threshold for -slowlog")
		logPath       = flag.String("log", "", `structured log destination: file path or "-" for stdout (empty = disabled)`)
		logFormat     = flag.String("log-format", "json", "structured log format: json (NDJSON) or text")
	)
	flag.Var(&loads, "load", "preload a graph: name=path or name=format:path (text, aut, aut-universal, xml, go); repeatable")
	flag.Var(&slos, "slo", "track an SLO: route:objective[:latency], e.g. query:0.999:30s; repeatable (default query:0.999)")
	flag.Parse()
	if len(slos) == 0 {
		slos = sloFlags{{Route: "query", Objective: 0.999}}
	}

	cfg := service.Config{
		MaxConcurrent:   *maxConcurrent,
		MaxQueue:        *maxQueue,
		QueueWait:       *queueWait,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDeadline,
		CacheSize:       *cacheSize,
		DisableLint:     *noLint,
		SLOs:            slos,
	}
	if *slowLogPath != "" {
		f, err := os.OpenFile(*slowLogPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal("open slowlog: %v", err)
		}
		defer f.Close()
		cfg.SlowLog = rpq.NewSlowLog(f, *slowThreshold)
	}
	logger, logCloser, err := openLogger(*logPath, *logFormat)
	if err != nil {
		fatal("open log: %v", err)
	}
	if logCloser != nil {
		defer logCloser.Close()
	}
	cfg.Logger = logger

	svc := service.NewServer(cfg)
	// Not ready until the listeners are up; /api/v1/readyz answers 503 until
	// then (and again once draining starts), while healthz stays pure
	// liveness.
	svc.SetReady(false)
	for _, l := range loads {
		f, err := os.Open(l.path)
		if err != nil {
			fatal("load %s: %v", l.name, err)
		}
		info, err := svc.LoadGraph(l.name, l.format, f)
		f.Close()
		if err != nil {
			fatal("load %s: %v", l.name, err)
		}
		fmt.Printf("rpqd loaded graph %q (%s, %d vertices, %d edges)\n",
			info.Name, info.Format, info.Vertices, info.Edges)
	}

	var obsSrv *http.Server
	if *obsAddr != "" {
		var err error
		obsSrv, err = rpq.ServeObservability(*obsAddr)
		if err != nil {
			fatal("observability: %v", err)
		}
		fmt.Printf("rpqd observability on http://%s\n", obsSrv.Addr)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("listen: %v", err)
	}
	httpSrv := &http.Server{Handler: svc.Handler()}
	fmt.Printf("rpqd listening on http://%s\n", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	svc.SetReady(true)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Printf("rpqd draining on %v (up to %v)\n", sig, *drainTimeout)
	case err := <-serveErr:
		fatal("serve: %v", err)
	}

	// Drain order: stop the query engine first (new requests 503, in-flight
	// queries finish or are canceled), then the HTTP listener, and the
	// observability plane last so the final counters stay scrapeable.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := svc.Shutdown(drainCtx); err != nil {
		fmt.Printf("rpqd drain expired: canceled in-flight queries (%v)\n", err)
	}
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelHTTP()
	if err := httpSrv.Shutdown(httpCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Printf("rpqd http shutdown: %v\n", err)
	}
	if obsSrv != nil {
		if err := obsSrv.Close(); err != nil {
			fmt.Printf("rpqd observability shutdown: %v\n", err)
		}
	}
	fmt.Println("rpqd stopped")
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rpqd: "+format+"\n", args...)
	os.Exit(1)
}

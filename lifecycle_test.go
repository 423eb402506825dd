package rpq

import (
	"net"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestInflightDrainsOnSolverPanic pins the deferred-Done lifecycle fix: a
// panic escaping any solver variant must not leave a ghost entry in
// /debug/rpq/queries. The panic comes from the progress hook, which every
// worklist solve calls at least once, when its worklist drains — standing
// in for a bug inside a solver variant.
func TestInflightDrainsOnSolverPanic(t *testing.T) {
	g := figure1Graph(t)
	if n := len(InflightQueries()); n != 0 {
		t.Fatalf("in-flight registry not empty before test: %d entries", n)
	}
	run := func(name string, f func()) {
		t.Helper()
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: solver did not panic", name)
				}
			}()
			f()
		}()
		if n := len(InflightQueries()); n != 0 {
			t.Fatalf("%s: %d ghost in-flight entries after solver panic", name, n)
		}
	}
	opts := func() *Options { return &Options{Progress: func(Progress) { panic("solver boom") }} }
	p := MustParsePattern("(!def(x))* use(x)")
	run("exist", func() { g.Exist(p, opts()) })
	run("universal", func() { g.Universal(p, opts()) })
	run("violations", func() { g.Violations("(def(x) (use(x))*)*", false, opts()) })
	// Repeat the existential case a few times: Done must also be safe when
	// the same options value is reused across runs.
	o := opts()
	for i := 0; i < 3; i++ {
		run("exist-repeat", func() { g.Exist(p, o) })
	}
}

// TestInflightDrainsOnProgressPanic panics from the progress callback — the
// other user-supplied hook that runs on a solver goroutine.
func TestInflightDrainsOnProgressPanic(t *testing.T) {
	g := figure1Graph(t)
	p := MustParsePattern("(!def(x))* use(x)")
	// Under enumeration, Progress fires once per enumerated substitution.
	opts := &Options{
		Algorithm: Enumerate,
		Progress:  func(Progress) { panic("progress boom") },
	}
	func() {
		defer func() { recover() }()
		g.Exist(p, opts)
	}()
	if n := len(InflightQueries()); n != 0 {
		t.Fatalf("%d ghost in-flight entries after progress panic", n)
	}
}

// TestServeObservabilityWithStartupFailure pins the startup-failure path: a
// bind error must return without leaving a goroutine running.
func TestServeObservabilityWithStartupFailure(t *testing.T) {
	// Occupy a port so the observability bind fails deterministically.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		srv, err := ServeObservability(ln.Addr().String())
		if err == nil {
			srv.Close()
			t.Fatalf("ServeObservability on a bound port succeeded")
		}
		if !strings.Contains(err.Error(), "listen") {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	// Any leaked goroutine would persist; give the scheduler a moment to
	// settle, then compare.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines grew across failed startups: %d before, %d after", before, n)
	}
}

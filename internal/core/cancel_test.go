package core

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"rpq/internal/pattern"
)

// existAlgos are the existential solver variants; univAlgos the universal
// ones (hybrid exists only universally).
var (
	existAlgos = []Algo{AlgoBasic, AlgoMemo, AlgoPrecomp, AlgoEnum}
	univAlgos  = []Algo{AlgoBasic, AlgoMemo, AlgoPrecomp, AlgoEnum, AlgoHybrid}
)

// TestCancelPreCanceled runs every variant under an already-canceled
// context: each must return an *InterruptError wrapping ErrCanceled (and,
// transitively, context.Canceled) instead of a result.
func TestCancelPreCanceled(t *testing.T) {
	wl := corpus(t)[0]
	q := MustCompile(pattern.MustParse(wl.pat), wl.g.U)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	for _, algo := range existAlgos {
		res, err := ExistContext(ctx, wl.g, wl.start, q, Options{Algo: algo})
		checkInterrupt(t, res, err, ErrCanceled, context.Canceled)
	}
	for _, algo := range univAlgos {
		res, err := UnivContext(ctx, wl.g, wl.start, q, Options{Algo: algo})
		if algo == AlgoBasic || algo == AlgoMemo || algo == AlgoPrecomp {
			// The direct universal algorithms may abort on the determinism
			// check before the first cancellation check fires; both outcomes
			// are acceptable, but a success is not.
			if err == nil {
				t.Fatalf("univ %v: ran to completion under a canceled context", algo)
			}
			if !errors.Is(err, ErrNondeterministic) {
				checkInterrupt(t, res, err, ErrCanceled, context.Canceled)
			}
			continue
		}
		checkInterrupt(t, res, err, ErrCanceled, context.Canceled)
	}
}

// TestDeadlineBreach runs under a 1ns context timeout — expired before the
// solver starts — and requires a typed ErrDeadline with partial statistics.
func TestDeadlineBreach(t *testing.T) {
	wl := corpus(t)[0]
	q := MustCompile(pattern.MustParse(wl.pat), wl.g.U)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	res, err := ExistContext(ctx, wl.g, wl.start, q, Options{Algo: AlgoMemo})
	checkInterrupt(t, res, err, ErrDeadline, context.DeadlineExceeded)

	var ie *InterruptError
	errors.As(err, &ie)
	if ie.Stats.WorklistInserts == 0 {
		t.Fatal("interrupted run reported no worklist inserts; expected at least the initial push")
	}

	res, err = UnivContext(ctx, wl.g, wl.start, q, Options{Algo: AlgoEnum})
	checkInterrupt(t, res, err, ErrDeadline, context.DeadlineExceeded)
}

// TestDeadlinePartialExplain requires an interrupted explain-enabled run to
// carry the partial profile in the InterruptError.
func TestDeadlinePartialExplain(t *testing.T) {
	wl := corpus(t)[0]
	q := MustCompile(pattern.MustParse(wl.pat), wl.g.U)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	_, err := ExistContext(ctx, wl.g, wl.start, q, Options{Algo: AlgoMemo, Explain: true})
	var ie *InterruptError
	if !errors.As(err, &ie) {
		t.Fatalf("got %v, want *InterruptError", err)
	}
	if ie.Explain == nil {
		t.Fatal("explain-enabled interrupted run carried no partial profile")
	}
}

// TestCancelCompletesUnderLongDeadline checks the overhead path: a generous
// deadline must not change the result.
func TestCancelCompletesUnderLongDeadline(t *testing.T) {
	wl := corpus(t)[0]
	q := MustCompile(pattern.MustParse(wl.pat), wl.g.U)
	plain, err := Exist(wl.g, wl.start, q, Options{Algo: AlgoMemo})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	bounded, err := ExistContext(ctx, wl.g, wl.start, q, Options{Algo: AlgoMemo})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Pairs) != len(bounded.Pairs) {
		t.Fatalf("deadline-bounded run returned %d pairs, unbounded %d", len(bounded.Pairs), len(plain.Pairs))
	}
}

// TestProgressCallback checks Options.Progress delivery: the enumeration
// solver reports once per enumerated substitution with the enumerate phase.
func TestProgressCallback(t *testing.T) {
	wl := corpus(t)[2] // cyclic: small parameter domain, several substs
	q := MustCompile(pattern.MustParse(wl.pat), wl.g.U)
	var calls int
	var phases []string
	res, err := Exist(wl.g, wl.start, q, Options{
		Algo: AlgoEnum,
		Progress: func(p Progress) {
			calls++
			phases = append(phases, p.Phase)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("Progress callback never fired for the enumeration solver")
	}
	if calls < res.Stats.EnumSubsts {
		t.Fatalf("got %d progress calls, want at least one per enumerated substitution (%d)",
			calls, res.Stats.EnumSubsts)
	}
	for _, ph := range phases {
		if ph != "enumerate" {
			t.Fatalf("unexpected progress phase %q", ph)
		}
	}
}

// TestCancelStormNoLeaks hammers every variant — SCC ordering on and off —
// with randomly-timed cancellations across the corpus, then requires the
// goroutine count to settle back to the baseline: no canceler-watcher
// goroutine may leak. Run with -race in CI.
func TestCancelStormNoLeaks(t *testing.T) {
	wls := corpus(t)
	rng := rand.New(rand.NewSource(99))
	baseline := settledGoroutines()

	storm := func(run func(ctx context.Context) (*Result, error)) {
		ctx, cancel := context.WithCancel(context.Background())
		delay := time.Duration(rng.Intn(300)) * time.Microsecond
		go func() {
			time.Sleep(delay)
			cancel()
		}()
		res, err := run(ctx)
		cancel()
		if err != nil {
			var ie *InterruptError
			if !errors.As(err, &ie) && !errors.Is(err, ErrNondeterministic) {
				t.Fatalf("storm run failed with untyped error: %v", err)
			}
		} else if res == nil {
			t.Fatal("storm run returned nil result without error")
		}
	}

	for _, wl := range wls {
		q := MustCompile(pattern.MustParse(wl.pat), wl.g.U)
		for _, algo := range existAlgos {
			for _, scc := range []bool{false, true} {
				opts := Options{Algo: algo, SCCOrder: scc}
				storm(func(ctx context.Context) (*Result, error) {
					return ExistContext(ctx, wl.g, wl.start, q, opts)
				})
			}
		}
		for _, algo := range univAlgos {
			opts := Options{Algo: algo}
			storm(func(ctx context.Context) (*Result, error) {
				return UnivContext(ctx, wl.g, wl.start, q, opts)
			})
		}
	}

	if after := settledGoroutines(); after > baseline+2 {
		t.Fatalf("goroutine leak after cancellation storm: %d before, %d after", baseline, after)
	}
}

// checkInterrupt asserts the (res, err) pair is a typed interruption
// matching the sentinel and its underlying context error.
func checkInterrupt(t *testing.T, res *Result, err error, sentinel, ctxErr error) {
	t.Helper()
	if res != nil {
		t.Fatal("interrupted run returned a non-nil result")
	}
	var ie *InterruptError
	if !errors.As(err, &ie) {
		t.Fatalf("got %v (%T), want *InterruptError", err, err)
	}
	if !errors.Is(err, sentinel) {
		t.Fatalf("errors.Is(%v, %v) = false", err, sentinel)
	}
	if !errors.Is(err, ctxErr) {
		t.Fatalf("errors.Is(%v, %v) = false", err, ctxErr)
	}
}

// settledGoroutines samples runtime.NumGoroutine until it stops shrinking,
// giving canceled watchers time to drain and exit.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(2 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m >= n {
			return m
		}
		n = m
	}
	return n
}

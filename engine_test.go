package effitest_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"effitest"
)

// engineOutcomesEqual compares everything except wall-clock durations,
// which legitimately vary run to run.
func engineOutcomesEqual(a, b *effitest.ChipOutcome) bool {
	return a.Iterations == b.Iterations &&
		a.ScanBits == b.ScanBits &&
		a.Configured == b.Configured &&
		a.Passed == b.Passed &&
		a.Xi == b.Xi &&
		reflect.DeepEqual(a.X, b.X) &&
		reflect.DeepEqual(a.Bounds.Lo, b.Bounds.Lo) &&
		reflect.DeepEqual(a.Bounds.Hi, b.Bounds.Hi)
}

// TestEngineParallelMatchesSequential runs a Table-1 benchmark profile
// through two engines that differ only in worker count and requires
// byte-identical per-chip outcomes: parallelism must not change what the
// flow computes, only how fast.
func TestEngineParallelMatchesSequential(t *testing.T) {
	profile, ok := effitest.ProfileByName("s9234")
	if !ok {
		t.Fatal("s9234 profile missing")
	}
	c, err := effitest.Generate(profile, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	seq, err := effitest.New(c, effitest.WithWorkers(1), effitest.WithPeriodQuantile(0.8413, 400))
	if err != nil {
		t.Fatal(err)
	}
	par, err := effitest.New(c, effitest.WithWorkers(8), effitest.WithPeriodQuantile(0.8413, 400))
	if err != nil {
		t.Fatal(err)
	}
	if seq.Period() != par.Period() {
		t.Fatalf("period calibration depends on workers: %v != %v", seq.Period(), par.Period())
	}

	chips, err := par.SampleChips(ctx, 7, 12)
	if err != nil {
		t.Fatal(err)
	}
	seqOuts, err := seq.RunChipsAll(ctx, chips)
	if err != nil {
		t.Fatal(err)
	}
	parOuts, err := par.RunChipsAll(ctx, chips)
	if err != nil {
		t.Fatal(err)
	}
	for i := range chips {
		if !engineOutcomesEqual(seqOuts[i], parOuts[i]) {
			t.Fatalf("chip %d: parallel outcome diverged from sequential", i)
		}
	}

	// The aggregated yield statistics must agree exactly as well.
	seqStats, err := seq.Yield(ctx, chips)
	if err != nil {
		t.Fatal(err)
	}
	parStats, err := par.Yield(ctx, chips)
	if err != nil {
		t.Fatal(err)
	}
	seqStats.AvgAlignTime, parStats.AvgAlignTime = 0, 0
	seqStats.AvgConfigTime, parStats.AvgConfigTime = 0, 0
	if seqStats != parStats {
		t.Fatalf("yield stats diverged:\nseq %+v\npar %+v", seqStats, parStats)
	}
}

// TestEngineCancellation checks that a cancelled context aborts chip
// execution promptly with context.Canceled.
func TestEngineCancellation(t *testing.T) {
	c, err := effitest.Generate(effitest.NewProfile("cancel", 40, 400, 4, 48), 7)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := effitest.New(c, effitest.WithWorkers(4), effitest.WithPeriodQuantile(0.8413, 200))
	if err != nil {
		t.Fatal(err)
	}
	// More chips than RunChips' in-flight window (3 × 4 workers = 12):
	// chip 0's slot is held until its result is consumed, so
	// every chip past the window is claimed after the mid-stream cancel
	// below, however fast chips run and however the workers are scheduled.
	chips, err := eng.SampleChips(context.Background(), 3, 256)
	if err != nil {
		t.Fatal(err)
	}

	// Already-cancelled context: nothing runs, the error surfaces.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.RunChipsAll(ctx, chips); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunChipsAll error = %v, want context.Canceled", err)
	}
	if _, err := eng.RunChip(ctx, chips[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunChip error = %v, want context.Canceled", err)
	}

	// Mid-stream cancellation: cancel after the first result. The stream
	// still yields one result per chip, with the context error on every
	// chip that was aborted, and terminates promptly.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	start := time.Now()
	sawCancel := false
	results := 0
	for r := range eng.RunChips(ctx2, chips) {
		results++
		if r.Index == 0 {
			cancel2()
		}
		if errors.Is(r.Err, context.Canceled) {
			sawCancel = true
		}
	}
	if results != len(chips) {
		t.Fatalf("cancelled stream yielded %d results, want %d", results, len(chips))
	}
	if !sawCancel {
		t.Fatal("no result carried context.Canceled after mid-stream cancel")
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancelled stream took %v to terminate", elapsed)
	}

	// Breaking out of the stream early must release the workers without
	// requiring a cancel.
	broke := 0
	for range eng.RunChips(context.Background(), chips) {
		broke++
		break
	}
	if broke != 1 {
		t.Fatalf("break consumed %d results", broke)
	}
}

// slowFirstChip holds chip 0 at the tester until release closes, so the
// reorder buffer waits for it while the other workers run as far ahead as
// the in-flight window lets them.
type slowFirstChip struct {
	effitest.SimBackend
	release <-chan struct{}
}

func (s slowFirstChip) Open(ch *effitest.Chip, resolution float64) (effitest.Session, error) {
	if ch.Index == 0 {
		<-s.release
	}
	return s.SimBackend.Open(ch, resolution)
}

// TestRunChipsBreakBoundsWindow breaks out of a long RunChips stream early:
// the chips executed stay within the in-flight window (3×workers chips
// claimed but not yet yielded) past the consumed ones, and the break
// releases every worker. Chip 0 is held until the other 3×workers−1 chips
// of the window have finished, so the workers have run as far ahead as the
// window allows before the stream yields anything.
func TestRunChipsBreakBoundsWindow(t *testing.T) {
	const workers, n, consumed = 4, 1000, 25
	const window = 3 * workers
	c, err := effitest.Generate(effitest.NewProfile("windowed", 16, 120, 2, 14), 8)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	var executed atomic.Int64
	eng, err := effitest.New(c,
		effitest.WithWorkers(workers),
		effitest.WithPeriodQuantile(0.8413, 200),
		effitest.WithBackend(slowFirstChip{release: release}),
		effitest.WithObserver(effitest.ObserverFunc(func(e effitest.Event) {
			if _, ok := e.(effitest.ChipDoneEvent); ok {
				if executed.Add(1) == window-1 {
					close(release)
				}
			}
		})),
	)
	if err != nil {
		t.Fatal(err)
	}
	chips := effitest.SampleChips(c, 3, n)
	before := runtime.NumGoroutine()

	got := 0
	for r := range eng.RunChips(context.Background(), chips) {
		if r.Err != nil {
			t.Fatalf("chip %d: %v", r.Index, r.Err)
		}
		if got++; got == consumed {
			break
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutines leaked after break: %d -> %d", before, now)
	}
	if e := executed.Load(); e > consumed+window {
		t.Fatalf("%d chips executed for %d consumed (window is 3×%d)", e, consumed, workers)
	}
}

// runChipAllocCeiling is the allocation count of one warm s9234 chip run
// (BenchmarkFlowChip/s9234's allocs/op). The count is independent of the
// hardware, so an exact ceiling catches any change that adds per-chip
// allocation.
const runChipAllocCeiling = 9

// TestRunChipAllocCeiling holds warm Plan.RunChip (through Engine.RunChip,
// which adds nothing) on s9234 at or below runChipAllocCeiling.
func TestRunChipAllocCeiling(t *testing.T) {
	if testing.Short() {
		// The race job runs -short, and the race detector randomly drops
		// sync.Pool puts, so the pooled scratch makes the count inexact.
		t.Skip("allocation ceiling skipped in -short mode")
	}
	profile, ok := effitest.ProfileByName("s9234")
	if !ok {
		t.Fatal("s9234 profile missing")
	}
	c, err := effitest.Generate(profile, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := effitest.New(c, effitest.WithPeriod(effitest.PeriodQuantile(c, 2, 400, 0.8413)))
	if err != nil {
		t.Fatal(err)
	}
	chip := effitest.SampleChip(c, 3, 0)
	ctx := context.Background()
	run := func() {
		if _, err := eng.RunChip(ctx, chip); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the scratch pool
	if allocs := testing.AllocsPerRun(20, run); allocs > runChipAllocCeiling {
		t.Fatalf("warm RunChip makes %v allocations, ceiling %d", allocs, runChipAllocCeiling)
	}
}

// TestEngineOptions checks that functional options land in the engine's
// configuration.
func TestEngineOptions(t *testing.T) {
	c, err := effitest.Generate(effitest.NewProfile("opts", 24, 200, 3, 24), 4)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := effitest.New(c,
		effitest.WithAlignMode(effitest.AlignOff),
		effitest.WithEpsilon(0.01),
		effitest.WithSeed(42),
		effitest.WithWorkers(3),
		effitest.WithMaxBatch(8),
		effitest.WithSlotFilling(false),
		effitest.WithHoldYield(0.95),
		effitest.WithHoldSamples(120),
		effitest.WithTesterResolution(1e-3),
		effitest.WithPeriod(1.25),
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := eng.Config()
	if cfg.AlignMode != effitest.AlignOff {
		t.Fatalf("solver mode not applied: %+v", cfg)
	}
	if cfg.Eps != 0.01 || cfg.Seed != 42 || cfg.Workers != 3 || cfg.MaxBatch != 8 {
		t.Fatalf("scalar options not applied: %+v", cfg)
	}
	if cfg.FillSlots || cfg.HoldYield != 0.95 || cfg.HoldSamples != 120 || cfg.TesterResolution != 1e-3 {
		t.Fatalf("flow options not applied: %+v", cfg)
	}
	if eng.Period() != 1.25 {
		t.Fatalf("period = %v, want pinned 1.25", eng.Period())
	}

	// WithConfig serves as a base layer; later options still win.
	base := effitest.DefaultConfig()
	base.Eps = 0.2
	eng2, err := effitest.New(c,
		effitest.WithConfig(base),
		effitest.WithEpsilon(0.05),
		effitest.WithPeriod(1.0),
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := eng2.Config().Eps; got != 0.05 {
		t.Fatalf("later option did not win over WithConfig: eps = %v", got)
	}

	// Mismatched chip -> typed sentinel error.
	other, err := effitest.Generate(effitest.NewProfile("opts2", 24, 200, 3, 24), 5)
	if err != nil {
		t.Fatal(err)
	}
	ch := effitest.SampleChip(other, 1, 0)
	if _, err := eng.RunChip(context.Background(), ch); !errors.Is(err, effitest.ErrChipCircuitMismatch) {
		t.Fatalf("error = %v, want ErrChipCircuitMismatch", err)
	}
}

package core

import (
	"errors"
	"math"
	"testing"

	"effitest/internal/circuit"
	"effitest/internal/tester"
)

func kernelTestPlan(t *testing.T) (*circuit.Circuit, *Plan) {
	t.Helper()
	c, err := circuit.Generate(circuit.TinyProfile("kerneltest", 48, 480, 4, 56), 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.HoldSamples = 60
	pl, err := Prepare(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, pl
}

// TestBakedKernelsMatchNaivePredict pins the baked fast path bitwise
// against the PredictBounds/naiveSigmas oracles on measured bounds from a
// real chip run (the root-level differential suite covers the full
// conformance matrix; this is the white-box core variant).
func TestBakedKernelsMatchNaivePredict(t *testing.T) {
	c, pl := kernelTestPlan(t)
	ks := pl.kernels
	if ks == nil {
		t.Fatal("Prepare left no baked kernels")
	}

	ch := tester.SampleChip(c, 9, 0)
	out, err := pl.RunChip(t.Context(), ch, c.TNominal, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Replay prediction on copies of the measured bounds through both paths.
	mk := func() *Bounds {
		b := InitBounds(c)
		copy(b.Lo, out.Bounds.Lo)
		copy(b.Hi, out.Bounds.Hi)
		return b
	}
	naive := mk()
	if err := PredictBounds(c, pl.Groups, pl.Tested, naive); err != nil {
		t.Fatal(err)
	}
	fast := mk()
	scr := pl.getScratch()
	defer pl.putScratch(scr)
	ks.predictInto([]*Bounds{fast}, &scr.ws)
	for p := range naive.Lo {
		if naive.Lo[p] != fast.Lo[p] || naive.Hi[p] != fast.Hi[p] {
			t.Fatalf("path %d: naive [%v, %v] != kernel [%v, %v]",
				p, naive.Lo[p], naive.Hi[p], fast.Lo[p], fast.Hi[p])
		}
	}

	sigNaive, err := naiveSigmas(c, pl.Groups, pl.Tested)
	if err != nil {
		t.Fatal(err)
	}
	sigFast := pl.PredictorSigmas()
	for p := range sigNaive {
		if math.IsNaN(sigNaive[p]) != math.IsNaN(sigFast[p]) {
			t.Fatalf("path %d: NaN disagreement: %v vs %v", p, sigNaive[p], sigFast[p])
		}
		if !math.IsNaN(sigNaive[p]) && sigNaive[p] != sigFast[p] {
			t.Fatalf("path %d: σ′ %v (naive) != %v (kernel)", p, sigNaive[p], sigFast[p])
		}
	}
}

// TestPredictBoundsKernelZeroAlloc asserts prediction on one chip's bounds
// performs zero heap allocations once the worker scratch is warm — the
// contract that keeps fleet throughput off the garbage collector.
func TestPredictBoundsKernelZeroAlloc(t *testing.T) {
	c, pl := kernelTestPlan(t)
	ch := tester.SampleChip(c, 9, 1)
	out, err := pl.RunChip(t.Context(), ch, c.TNominal, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b := InitBounds(c)
	copy(b.Lo, out.Bounds.Lo)
	copy(b.Hi, out.Bounds.Hi)

	scr := pl.getScratch()
	defer pl.putScratch(scr)
	ks, one := pl.kernels, []*Bounds{b}
	ks.predictInto(one, &scr.ws) // warm-up
	allocs := testing.AllocsPerRun(100, func() {
		ks.predictInto(one, &scr.ws)
	})
	if allocs != 0 {
		t.Fatalf("per-chip prediction allocated %.1f times per run after warm-up", allocs)
	}
}

// TestPlanWithoutKernelsFails pins the one-path contract: a plan built by
// neither Prepare nor Bind has no kernels, so every chip of RunChip and
// RunChips fails with errNoKernels rather than detouring through a second
// predictor — and fails before measuring, so no tester session opens for
// work prediction would discard.
func TestPlanWithoutKernelsFails(t *testing.T) {
	c, pl := kernelTestPlan(t)
	literal := &Plan{Circuit: c, Cfg: pl.Cfg, Groups: pl.Groups, Tested: pl.Tested, Batches: pl.Batches, Hold: pl.Hold}
	fb := tester.NewFaultBackend(nil) // no faults: it only counts sessions
	opts := RunOptions{Backend: fb}
	ch := tester.SampleChip(c, 9, 2)
	if _, err := literal.RunChip(t.Context(), ch, c.TNominal, opts); !errors.Is(err, errNoKernels) {
		t.Fatalf("RunChip on a kernel-less plan: err = %v, want errNoKernels", err)
	}
	chips := tester.SampleChips(c, 9, 11)
	n := 0
	for r := range literal.RunChips(t.Context(), chips, c.TNominal, 2, opts) {
		if !errors.Is(r.Err, errNoKernels) {
			t.Fatalf("RunChips chip %d: err = %v, want errNoKernels", r.Index, r.Err)
		}
		n++
	}
	if n != len(chips) {
		t.Fatalf("RunChips yielded %d results, want %d", n, len(chips))
	}
	if opens := fb.Stats().Opens; opens != 0 {
		t.Fatalf("kernel-less plan opened %d tester sessions, want 0", opens)
	}
	if literal.PredictorSigmas() != nil {
		t.Fatal("PredictorSigmas on a kernel-less plan returned sigmas")
	}
}

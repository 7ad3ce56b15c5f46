package core

import (
	"context"
	"math"
	"slices"
	"testing"

	"effitest/internal/tester"
)

// TestAlignModesProduceSameMeasurements verifies that on a whole-chip run,
// the default heuristic, the fast MILP and the paper big-M ILP all measure
// the same delays (within tester resolution) even if they pick different
// intermediate buffer values: the measured windows must all bracket the same
// truth with the same ε.
func TestAlignModesProduceSameMeasurements(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-ILP ablation (minutes under -race) skipped in -short mode")
	}
	c := tinyCircuit(t, 9)
	ch := tester.SampleChip(c, 17, 0)
	modes := []AlignMode{AlignHeuristic, AlignFastMILP, AlignPaperILP}
	// The big-M ILP costs seconds per batch; two batches suffice to compare
	// measured values across solvers.
	allBatches := FormBatches(c, rangeInts(c.NumPaths()), DefaultConfig())
	if len(allBatches) > 2 {
		allBatches = allBatches[:2]
	}
	var measured []int
	for _, b := range allBatches {
		measured = append(measured, b...)
	}
	results := make([]*Bounds, len(modes))
	for mi, mode := range modes {
		cfg := DefaultConfig()
		cfg.AlignMode = mode
		b := InitBounds(c)
		ate := tester.NewATE(ch, cfg.TesterResolution)
		for _, batch := range allBatches {
			if _, _, err := RunBatchTest(context.Background(), ate, c, batch, b, NoHoldBounds, cfg); err != nil {
				t.Fatalf("mode %v: %v", mode, err)
			}
		}
		results[mi] = b
	}
	cfg := DefaultConfig()
	for _, p := range measured {
		for mi := range modes {
			if w := results[mi].Hi[p] - results[mi].Lo[p]; w >= cfg.Eps {
				t.Fatalf("mode %v: path %d unresolved (width %v)", modes[mi], p, w)
			}
			// All modes must agree on the measured delay to within
			// ε + resolution.
			d0 := (results[0].Lo[p] + results[0].Hi[p]) / 2
			di := (results[mi].Lo[p] + results[mi].Hi[p]) / 2
			if math.Abs(d0-di) > cfg.Eps+2*cfg.TesterResolution {
				t.Fatalf("path %d: mode %v measured %v, mode %v measured %v",
					p, modes[0], d0, modes[mi], di)
			}
		}
	}
}

// TestSlotFillAblation: filling empty slots increases the tested set and
// never increases the per-tested-path iteration cost dramatically.
func TestSlotFillAblation(t *testing.T) {
	c := tinyCircuit(t, 10)
	on := DefaultConfig()
	off := DefaultConfig()
	off.FillSlots = false
	planOn, err := Prepare(c, on)
	if err != nil {
		t.Fatal(err)
	}
	planOff, err := Prepare(c, off)
	if err != nil {
		t.Fatal(err)
	}
	if planOn.NumTested() < planOff.NumTested() {
		t.Fatalf("filling reduced npt: %d < %d", planOn.NumTested(), planOff.NumTested())
	}
	if len(planOff.Filled) != 0 {
		t.Fatal("no-fill plan recorded fills")
	}
	// Filled paths are measured: their final windows must be < ε.
	if len(planOn.Filled) > 0 {
		ch := tester.SampleChip(c, 23, 0)
		td := chipQuantile(c, 0.9)
		out, err := planOn.RunChip(t.Context(), ch, td, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range planOn.Filled {
			if w := out.Bounds.Hi[p] - out.Bounds.Lo[p]; w >= on.Eps {
				t.Fatalf("filled path %d not actually measured (width %v)", p, w)
			}
		}
	}
}

// TestMaxBatchAblation: capping batches must not change measurement
// correctness, only the batch structure.
func TestMaxBatchAblation(t *testing.T) {
	c := tinyCircuit(t, 11)
	for _, cap := range []int{0, 4, 16} {
		cfg := DefaultConfig()
		cfg.MaxBatch = cap
		plan, err := Prepare(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if cap > 0 {
			for bi, b := range plan.Batches {
				if len(b) > cap {
					t.Fatalf("cap %d: batch %d has %d paths", cap, bi, len(b))
				}
			}
		}
		ch := tester.SampleChip(c, 29, 0)
		td := chipQuantile(c, 0.9)
		out, err := plan.RunChip(t.Context(), ch, td, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range plan.Tested {
			if w := out.Bounds.Hi[p] - out.Bounds.Lo[p]; w >= cfg.Eps {
				t.Fatalf("cap %d: tested path %d unresolved", cap, p)
			}
		}
	}
}

// TestFlowDeterminism: identical configuration and chip must give identical
// outcomes (iteration counts, bounds, buffer values).
func TestFlowDeterminism(t *testing.T) {
	c := tinyCircuit(t, 12)
	cfg := DefaultConfig()
	plan1, err := Prepare(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan2, err := Prepare(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ch := tester.SampleChip(c, 31, 4)
	td := chipQuantile(c, 0.85)
	o1, err := plan1.RunChip(t.Context(), ch, td, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	o2, err := plan2.RunChip(t.Context(), ch, td, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if o1.Iterations != o2.Iterations || o1.Passed != o2.Passed || o1.Configured != o2.Configured {
		t.Fatalf("non-deterministic flow: %+v vs %+v", o1, o2)
	}
	for f := 0; f < c.NumFF; f++ {
		if o1.X[f] != o2.X[f] {
			t.Fatalf("buffer %d configured differently: %v vs %v", f, o1.X[f], o2.X[f])
		}
	}
}

// TestHoldBoundsRestrictConfiguration: with crushing hold bounds the flow
// must fail gracefully (unconfigurable chips, no panic).
func TestHoldBoundsRestrictConfiguration(t *testing.T) {
	c := tinyCircuit(t, 13)
	cfg := DefaultConfig()
	plan, err := Prepare(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite λ with impossible bounds (beyond any buffer range).
	span := 0.0
	for _, b := range c.Buffered {
		if w := c.Buf.Hi[b] - c.Buf.Lo[b]; w > span {
			span = w
		}
	}
	for pair := range plan.Hold.ByPair {
		plan.Hold.ByPair[pair] = 10 * span
	}
	ch := tester.SampleChip(c, 37, 0)
	out, err := plan.RunChip(t.Context(), ch, chipQuantile(c, 0.9), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Configured || out.Passed {
		t.Fatal("impossible hold bounds must make configuration infeasible")
	}
}

func BenchmarkAlignSolveHeuristic(b *testing.B) {
	c, err := tinyCircuitErr(24, 200, 6, 30, 3)
	if err != nil {
		b.Fatal(err)
	}
	batches := FormBatches(c, rangeInts(c.NumPaths()), DefaultConfig())
	items := batchItems(c, batches[0], nil)
	assignWeights(items, 1000, 1)
	// One warm scratch, as a chip worker holds: the solves measure the
	// search, not the allocator.
	var scr alignScratch
	prev := slices.Clone(alignHeuristic(c, items, nil, &scr).X)
	// solve reports, beside time and allocations, the objective
	// evaluations (lattice probes) per solve.
	solve := func(prev []float64) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			scr.probes = 0
			for b.Loop() {
				alignHeuristic(c, items, prev, &scr)
			}
			b.ReportMetric(float64(scr.probes)/float64(b.N), "probes/op")
		}
	}
	b.Run("cold", solve(nil))
	// The warm-start re-solve runBatchTest makes after a batch's first
	// frequency step.
	b.Run("warm", solve(prev))
}

func BenchmarkAlignSolveFastMILP(b *testing.B) {
	c, err := tinyCircuitErr(24, 200, 6, 30, 3)
	if err != nil {
		b.Fatal(err)
	}
	batches := FormBatches(c, rangeInts(c.NumPaths()), DefaultConfig())
	items := batchItems(c, batches[0], nil)
	assignWeights(items, 1000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alignMILP(context.Background(), c, items, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConfigureScalable(b *testing.B) {
	c, err := tinyCircuitErr(40, 400, 6, 60, 5)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.HoldSamples = 100
	hb, err := ComputeHoldBounds(c, cfg)
	if err != nil {
		b.Fatal(err)
	}
	ch := tester.SampleChip(c, 3, 0)
	bounds := InitBounds(c)
	for p := range c.Paths {
		bounds.Lo[p] = ch.TrueMax[p] - 0.001
		bounds.Hi[p] = ch.TrueMax[p] + 0.001
	}
	td := chipQuantile(c, 0.7)
	// One baked kernel and a warm scratch, as a plan's chip workers hold.
	k := newConfigKernel(c)
	var scr configScratch
	b.ReportAllocs()
	for b.Loop() {
		k.configure(bounds, hb, td, &scr)
	}
}

package core

import (
	"context"
	"fmt"
	"testing"

	"effitest/internal/tester"
)

// batchTestWidths is the K axis the batched prediction path is pinned
// across, matching the multi-RHS kernel tests in internal/la.
var batchTestWidths = []int{1, 2, 7, 64}

// measuredBounds runs n chips and returns copies of their measured bounds,
// ready to be re-predicted through either path.
func measuredBounds(t *testing.T, pl *Plan, n int) []*Bounds {
	t.Helper()
	c := pl.Circuit
	chips := make([]*tester.Chip, n)
	for i := range chips {
		chips[i] = tester.SampleChip(c, 31, i)
	}
	outs, err := pl.RunChipsAll(context.Background(), chips, c.TNominal, 0, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bs := make([]*Bounds, n)
	for i, out := range outs {
		b := InitBounds(c)
		copy(b.Lo, out.Bounds.Lo)
		copy(b.Hi, out.Bounds.Hi)
		bs[i] = b
	}
	return bs
}

func cloneBounds(c *Bounds, pl *Plan) *Bounds {
	b := InitBounds(pl.Circuit)
	copy(b.Lo, c.Lo)
	copy(b.Hi, c.Hi)
	return b
}

// TestPredictIntoBatchMatchesSequential pins the batched multi-RHS
// prediction path bitwise against predicting each chip alone (K=1) across
// every batch width, including a width far beyond the auto default.
func TestPredictIntoBatchMatchesSequential(t *testing.T) {
	_, pl := kernelTestPlan(t)
	ks := pl.kernels
	maxK := batchTestWidths[len(batchTestWidths)-1]
	src := measuredBounds(t, pl, maxK)

	scr := pl.getScratch()
	defer pl.putScratch(scr)
	for _, k := range batchTestWidths {
		want := make([]*Bounds, k)
		for i := 0; i < k; i++ {
			want[i] = cloneBounds(src[i], pl)
			ks.predictInto(want[i:i+1], &scr.ws)
		}
		got := make([]*Bounds, k)
		for i := 0; i < k; i++ {
			got[i] = cloneBounds(src[i], pl)
		}
		ks.predictInto(got, &scr.ws)
		for i := 0; i < k; i++ {
			for p := range want[i].Lo {
				if got[i].Lo[p] != want[i].Lo[p] || got[i].Hi[p] != want[i].Hi[p] {
					t.Fatalf("k=%d chip %d path %d: batch [%v, %v] != sequential [%v, %v]",
						k, i, p, got[i].Lo[p], got[i].Hi[p], want[i].Lo[p], want[i].Hi[p])
				}
			}
		}
	}
}

// TestPredictIntoBatchZeroAlloc asserts the sequential batched prediction
// path performs zero heap allocations once the worker scratch is warm — the
// batch scratch blocks live in the worker's pooled arena.
func TestPredictIntoBatchZeroAlloc(t *testing.T) {
	_, pl := kernelTestPlan(t)
	bs := measuredBounds(t, pl, 8)

	scr := pl.getScratch()
	defer pl.putScratch(scr)
	ks := pl.kernels
	ks.predictInto(bs, &scr.ws) // warm-up: grows the arena to the batch high-water mark
	allocs := testing.AllocsPerRun(100, func() {
		ks.predictInto(bs, &scr.ws)
	})
	if allocs != 0 {
		t.Fatalf("batched prediction allocated %.1f times per run after warm-up", allocs)
	}
}

// TestBindBakesKernels asserts Bind bakes the per-group Cholesky kernels
// itself: a freshly bound plan carries them before any chip runs, and its
// outcomes match the eagerly prepared plan bitwise.
func TestBindBakesKernels(t *testing.T) {
	c, eager := kernelTestPlan(t)
	data, err := eager.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	pl, err := DecodePlan(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Bind(c); err != nil {
		t.Fatal(err)
	}
	if pl.kernels == nil {
		t.Fatal("Bind left the plan without prediction kernels")
	}

	ch := tester.SampleChip(c, 9, 4)
	want, err := eager.RunChip(t.Context(), ch, c.TNominal, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := pl.RunChip(t.Context(), ch, c.TNominal, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Iterations != want.Iterations || got.Passed != want.Passed || got.Xi != want.Xi {
		t.Fatalf("bound plan diverges: (%d, %v, %v) vs (%d, %v, %v)",
			got.Iterations, got.Passed, got.Xi, want.Iterations, want.Passed, want.Xi)
	}
	for p := range want.Bounds.Lo {
		if got.Bounds.Lo[p] != want.Bounds.Lo[p] || got.Bounds.Hi[p] != want.Bounds.Hi[p] {
			t.Fatalf("path %d: bound plan's bounds diverge", p)
		}
	}
}

// TestBatchWidth pins RunChips' batch-width policy.
func TestBatchWidth(t *testing.T) {
	cases := []struct {
		n, w int // population, workers
		want int
	}{
		{100, 4, defaultBatchWidth}, // plenty of chips
		{100, 100, 1},               // one chip per worker: nothing to batch
		{6, 4, 2},                   // small fleet: even share caps the width
		{1, 1, 1},                   // a lone chip
	}
	for _, tc := range cases {
		if got := batchWidth(tc.n, tc.w); got != tc.want {
			t.Errorf("batchWidth(n=%d, w=%d) = %d, want %d", tc.n, tc.w, got, tc.want)
		}
	}
}

// TestBatchedPredictionMatchesUnbatched runs a deliberately ragged fleet
// (17 chips: not a multiple of any tested width, so the final batch is
// always partial) through the RunChips scheduler at batch widths 1, 2, 7 and
// 64 and worker counts 1, 2 and 8, pinning every outcome bitwise against
// the whole-chip naive oracle.
func TestBatchedPredictionMatchesUnbatched(t *testing.T) {
	c, pl := kernelTestPlan(t)
	chips := tester.SampleChips(c, 13, 17)
	want := make([]*ChipOutcome, len(chips))
	for i, ch := range chips {
		out, err := pl.runChipNaive(t.Context(), ch, c.TNominal)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out
	}
	for _, kb := range batchTestWidths {
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("k%d_w%d", kb, workers), func(t *testing.T) {
				n := 0
				for r := range pl.runChips(t.Context(), chips, c.TNominal, workers, kb, RunOptions{}) {
					if r.Err != nil {
						t.Fatalf("chip %d: %v", r.Index, r.Err)
					}
					if !sameOutcome(r.Outcome, want[r.Index]) {
						t.Fatalf("chip %d: outcome at k=%d, workers=%d differs from the naive oracle", r.Index, kb, workers)
					}
					n++
				}
				if n != len(chips) {
					t.Fatalf("stream yielded %d results, want %d", n, len(chips))
				}
			})
		}
	}
}

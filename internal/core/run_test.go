package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"effitest/internal/circuit"
	"effitest/internal/tester"
)

func runTestPlan(t testing.TB) (*Plan, []*tester.Chip, float64) {
	t.Helper()
	c, err := circuit.Generate(circuit.TinyProfile("run", 36, 360, 4, 44), 11)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.HoldSamples = 100
	pl, err := Prepare(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	chips := tester.SampleChips(c, 5, 12)
	td := c.TNominal * 1.05
	return pl, chips, td
}

// sameOutcome compares everything except wall-clock durations, which
// legitimately vary run to run.
func sameOutcome(a, b *ChipOutcome) bool {
	return a.Iterations == b.Iterations &&
		a.ScanBits == b.ScanBits &&
		a.Configured == b.Configured &&
		a.Passed == b.Passed &&
		a.Xi == b.Xi &&
		reflect.DeepEqual(a.X, b.X) &&
		reflect.DeepEqual(a.Bounds.Lo, b.Bounds.Lo) &&
		reflect.DeepEqual(a.Bounds.Hi, b.Bounds.Hi)
}

func TestRunChipsParallelMatchesSequential(t *testing.T) {
	pl, chips, td := runTestPlan(t)
	ctx := context.Background()

	// Ground truth: plain sequential RunChip loop.
	want := make([]*ChipOutcome, len(chips))
	for i, ch := range chips {
		out, err := pl.RunChip(t.Context(), ch, td, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out
	}

	for _, workers := range []int{1, 2, 8} {
		outs, err := pl.RunChipsAll(ctx, chips, td, workers, RunOptions{})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range outs {
			if !sameOutcome(want[i], outs[i]) {
				t.Fatalf("workers=%d: chip %d outcome diverged from sequential", workers, i)
			}
		}
	}
}

func TestRunChipsStreamsInOrder(t *testing.T) {
	pl, chips, td := runTestPlan(t)
	next := 0
	for r := range pl.RunChips(context.Background(), chips, td, 4, RunOptions{}) {
		if r.Err != nil {
			t.Fatalf("chip %d: %v", r.Index, r.Err)
		}
		if r.Index != next {
			t.Fatalf("out-of-order result: got index %d, want %d", r.Index, next)
		}
		if r.Chip != chips[r.Index] {
			t.Fatalf("result %d carries the wrong chip", r.Index)
		}
		next++
	}
	if next != len(chips) {
		t.Fatalf("stream carried %d results, want %d", next, len(chips))
	}
}

func TestRunChipsCancelledContext(t *testing.T) {
	pl, chips, td := runTestPlan(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := pl.RunChipsAll(ctx, chips, td, 4, RunOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunChipsAll error = %v, want context.Canceled", err)
	}
	if _, err := pl.RunChip(ctx, chips[0], td, RunOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunChip error = %v, want context.Canceled", err)
	}
}

func TestRunChipCircuitMismatch(t *testing.T) {
	pl, _, td := runTestPlan(t)
	other, err := circuit.Generate(circuit.TinyProfile("other", 20, 160, 2, 20), 3)
	if err != nil {
		t.Fatal(err)
	}
	ch := tester.SampleChip(other, 1, 0)
	if _, err := pl.RunChip(t.Context(), ch, td, RunOptions{}); !errors.Is(err, ErrChipCircuitMismatch) {
		t.Fatalf("error = %v, want ErrChipCircuitMismatch", err)
	}
}

package effitest_test

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"effitest"
)

func errorTestCircuit(t *testing.T) *effitest.Circuit {
	t.Helper()
	c, err := effitest.Generate(effitest.NewProfile("errpaths", 32, 320, 4, 40), 5)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestEngineInvalidOptions drives New through every rejected option value
// and requires a descriptive construction error — not a hang in the online
// flow (ε ≤ 0 would never terminate a batch) or a panic.
func TestEngineInvalidOptions(t *testing.T) {
	c := errorTestCircuit(t)
	cases := []struct {
		name string
		opts []effitest.Option
		want string // substring of the error
	}{
		{"eps-zero", []effitest.Option{effitest.WithEpsilon(0)}, "Eps"},
		{"eps-negative", []effitest.Option{effitest.WithEpsilon(-0.002)}, "Eps"},
		{"eps-nan", []effitest.Option{effitest.WithEpsilon(math.NaN())}, "Eps"},
		{"eps-inf", []effitest.Option{effitest.WithEpsilon(math.Inf(1))}, "Eps"},
		{"workers-negative", []effitest.Option{effitest.WithWorkers(-1)}, "Workers"},
		{"max-batch-negative", []effitest.Option{effitest.WithMaxBatch(-2)}, "MaxBatch"},
		{"hold-samples-zero", []effitest.Option{effitest.WithHoldSamples(0)}, "HoldSamples"},
		{"hold-yield-zero", []effitest.Option{effitest.WithHoldYield(0)}, "HoldYield"},
		{"hold-yield-above-one", []effitest.Option{effitest.WithHoldYield(1.5)}, "HoldYield"},
		{"resolution-zero", []effitest.Option{effitest.WithTesterResolution(0)}, "TesterResolution"},
		{"resolution-negative", []effitest.Option{effitest.WithTesterResolution(-1e-4)}, "TesterResolution"},
		{"period-zero", []effitest.Option{effitest.WithPeriod(0)}, "period"},
		{"period-nan", []effitest.Option{effitest.WithPeriod(math.NaN())}, "period"},
		{"quantile-zero", []effitest.Option{effitest.WithPeriodQuantile(0, 100)}, "quantile"},
		{"quantile-one", []effitest.Option{effitest.WithPeriodQuantile(1, 100)}, "quantile"},
		{"calib-chips-zero", []effitest.Option{effitest.WithPeriodQuantile(0.8413, 0)}, "chip count"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := effitest.New(c, tc.opts...)
			if err == nil {
				t.Fatalf("New accepted invalid options, engine = %+v", eng)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the offending field %q", err, tc.want)
			}
		})
	}

	// The same invalid values pinned through WithConfig must be rejected
	// identically — WithConfig is documented as a base layer, not a bypass.
	bad := effitest.DefaultConfig()
	bad.Eps = -1
	if _, err := effitest.New(c, effitest.WithConfig(bad)); err == nil {
		t.Fatal("WithConfig bypassed option validation")
	}

	// Zero sentinels that mean "unlimited" stay valid: MaxBatch,
	// MaxIterPerPath and MaxGroupSize all document 0 as uncapped.
	uncapped := effitest.DefaultConfig()
	uncapped.MaxBatch = 0
	uncapped.MaxIterPerPath = 0
	uncapped.MaxGroupSize = 0
	if _, err := effitest.New(c, effitest.WithConfig(uncapped), effitest.WithPeriod(1)); err != nil {
		t.Fatalf("validation rejected documented zero sentinels: %v", err)
	}
}

// TestEngineSampleNegativeCount: a negative chip count is a caller error
// (the CLI's -chips flag reaches it), not a makeslice panic.
func TestEngineSampleNegativeCount(t *testing.T) {
	eng, err := effitest.New(errorTestCircuit(t), effitest.WithPeriodQuantile(0.8413, 100))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if chips, err := eng.SampleChips(ctx, 1, -1); err == nil || chips != nil {
		t.Fatalf("SampleChips(-1) = %d chips, %v; want an error", len(chips), err)
	}
	if chips, err := eng.SampleChipRange(ctx, 1, 4, -2); err == nil || chips != nil {
		t.Fatalf("SampleChipRange(4, -2) = %d chips, %v; want an error", len(chips), err)
	}
}

// TestEngineChipMismatchThroughRunChips checks ErrChipCircuitMismatch
// propagation through the streaming path: the mismatched chip carries the
// sentinel, the healthy chips still complete, and RunChipsAll surfaces the
// lowest-index error.
func TestEngineChipMismatchThroughRunChips(t *testing.T) {
	c := errorTestCircuit(t)
	eng, err := effitest.New(c, effitest.WithPeriodQuantile(0.8413, 100), effitest.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	chips, err := eng.SampleChips(ctx, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	other, err := effitest.Generate(effitest.NewProfile("errpaths2", 32, 320, 4, 40), 6)
	if err != nil {
		t.Fatal(err)
	}
	alien := effitest.SampleChip(other, 1, 0)
	mixed := append(append([]*effitest.Chip{}, chips[:3]...), alien)
	mixed = append(mixed, chips[3:]...)

	results := 0
	for r := range eng.RunChips(ctx, mixed) {
		results++
		if r.Chip == alien {
			if !errors.Is(r.Err, effitest.ErrChipCircuitMismatch) {
				t.Fatalf("alien chip error = %v, want ErrChipCircuitMismatch", r.Err)
			}
			continue
		}
		if r.Err != nil {
			t.Fatalf("healthy chip %d failed: %v", r.Index, r.Err)
		}
		if r.Outcome == nil {
			t.Fatalf("healthy chip %d has no outcome", r.Index)
		}
	}
	if results != len(mixed) {
		t.Fatalf("stream yielded %d results for %d chips", results, len(mixed))
	}

	if _, err := eng.RunChipsAll(ctx, mixed); !errors.Is(err, effitest.ErrChipCircuitMismatch) {
		t.Fatalf("RunChipsAll error = %v, want ErrChipCircuitMismatch", err)
	}
}

// TestEngineEarlyBreakReleasesWorkers breaks out of RunChips streams at
// several points and asserts, via a post-run goroutine count, that the
// worker pool fully unwinds — no goroutine leak per abandoned stream.
func TestEngineEarlyBreakReleasesWorkers(t *testing.T) {
	c := errorTestCircuit(t)
	eng, err := effitest.New(c, effitest.WithPeriodQuantile(0.8413, 100), effitest.WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	chips, err := eng.SampleChips(ctx, 3, 32)
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	for _, breakAfter := range []int{1, 5, len(chips)} {
		seen := 0
		for range eng.RunChips(ctx, chips) {
			seen++
			if seen >= breakAfter {
				break
			}
		}
		if seen != breakAfter {
			t.Fatalf("consumed %d results, want %d", seen, breakAfter)
		}
	}
	// Workers unwind asynchronously once the consumer breaks; give the
	// runtime a bounded window to settle back to the baseline.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d running, baseline %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

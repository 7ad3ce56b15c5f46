// Golden-corpus conformance suite: executes the declarative scenario matrix
// (circuits × alignment modes × ε × seeds, plus the experiment runners in
// reduced-sample mode) and diffs each run's canonical snapshot against
// testdata/golden/ with per-field tolerances.
//
// Regenerate the corpus after an intentional numeric change with
//
//	EFFITEST_UPDATE_GOLDEN=1 go test .
//
// and review the golden diffs like any other code change. Heavy scenarios
// (Table-1 circuits, Monte-Carlo experiment runners) are skipped under
// `go test -short`; the tiny64 scenarios always run.
package effitest_test

import (
	"context"
	"os"
	"runtime"
	"testing"
	"time"

	"effitest"
	"effitest/internal/conformance"
)

const goldenDir = "testdata/golden"

func updateGolden() bool { return os.Getenv("EFFITEST_UPDATE_GOLDEN") != "" }

func TestConformanceGolden(t *testing.T) {
	for _, sc := range conformance.DefaultMatrix() {
		t.Run(sc.Name(), func(t *testing.T) {
			if sc.Heavy && testing.Short() {
				t.Skip("heavy scenario skipped in -short mode")
			}
			snap, err := conformance.Run(context.Background(), sc)
			if err != nil {
				t.Fatal(err)
			}
			path := conformance.GoldenPath(goldenDir, sc)
			if updateGolden() {
				if err := snap.WriteFile(path); err != nil {
					t.Fatal(err)
				}
				t.Logf("golden updated: %s", path)
				return
			}
			want, err := conformance.LoadSnapshot(path)
			if err != nil {
				t.Fatalf("no golden for %s (%v)\nregenerate with: EFFITEST_UPDATE_GOLDEN=1 go test .", sc.Name(), err)
			}
			if diffs := conformance.Diff(snap, want); len(diffs) > 0 {
				t.Errorf("snapshot deviates from %s (%d fields):\n%s", path, len(diffs), conformance.FormatDiffs(diffs))
			}
		})
	}
}

// TestConformanceInvariants runs pipeline scenarios and asserts the
// structural guarantees of the paper on the live plan and outcomes:
// conflict-free batches (exclusive pairs never co-scheduled), configured
// buffer values on-lattice inside their ranges, tested windows below ε.
func TestConformanceInvariants(t *testing.T) {
	for _, sc := range conformance.DefaultMatrix() {
		if sc.Kind != conformance.KindPipeline {
			continue
		}
		t.Run(sc.Name(), func(t *testing.T) {
			if sc.Heavy && testing.Short() {
				t.Skip("heavy scenario skipped in -short mode")
			}
			res, err := conformance.RunPipeline(context.Background(), sc)
			if err != nil {
				t.Fatal(err)
			}
			plan := res.Engine.Plan()
			if v := conformance.PlanViolations(plan); len(v) > 0 {
				t.Errorf("plan violations:\n%v", v)
			}
			for i, out := range res.Outs {
				if v := conformance.OutcomeViolations(plan, out); len(v) > 0 {
					t.Errorf("chip %d violations:\n%v", i, v)
				}
			}
		})
	}
}

// metamorphicResult runs the tiny64 pipeline once and hands back the live
// engine and chips for the metamorphic sweeps below.
func metamorphicResult(t *testing.T) *conformance.PipelineResult {
	t.Helper()
	sc := conformance.Scenario{
		Kind: conformance.KindPipeline, Circuit: "tiny64",
		GenSeed: 1, Align: effitest.AlignHeuristic, Eps: 0.002, Seed: 1,
		Chips: 24, ChipSeed: 101, Quantile: 0.8413, CalibChips: 300,
	}
	p := effitest.NewProfile("tiny64", 64, 640, 6, 72)
	sc.Custom = &p
	res, err := conformance.RunPipeline(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestYieldMonotoneInPeriod sweeps the test period around the calibrated T2
// and requires the flow's yield to be non-decreasing in the period — the
// monotonicity the companion statistical-prediction work relies on. A
// longer period only loosens the setup constraints of Eqs. 15–18.
func TestYieldMonotoneInPeriod(t *testing.T) {
	res := metamorphicResult(t)
	ctx := context.Background()
	base := res.Engine.Period()
	prevYield := -1.0
	prevT := 0.0
	for _, f := range []float64{0.94, 0.97, 1.0, 1.03, 1.06, 1.12} {
		T := base * f
		eng, err := effitest.New(res.Circuit, effitest.WithPlan(res.Engine.Plan()), effitest.WithPeriod(T))
		if err != nil {
			t.Fatal(err)
		}
		st, err := eng.Yield(ctx, res.Chips)
		if err != nil {
			t.Fatal(err)
		}
		if st.Yield < prevYield {
			t.Errorf("yield not monotone in period: %.4f at T=%.4f < %.4f at T=%.4f",
				st.Yield, T, prevYield, prevT)
		}
		prevYield, prevT = st.Yield, T
	}
}

// TestSmallerEpsilonNeverWorsens halves ε repeatedly on a fixed circuit and
// chip population and requires that (a) the flow's yield never decreases —
// tighter measured windows can only improve the configuration — and (b) the
// average tester iterations never decrease — narrower termination windows
// cost frequency steps.
func TestSmallerEpsilonNeverWorsens(t *testing.T) {
	ctx := context.Background()
	prevYield, prevIters := -1.0, -1.0
	for _, eps := range []float64{0.016, 0.008, 0.004, 0.002} {
		scenario := conformance.Scenario{
			Kind: conformance.KindPipeline, Circuit: "tiny64",
			GenSeed: 1, Align: effitest.AlignHeuristic, Eps: eps, Seed: 1,
			Chips: 24, ChipSeed: 101, Quantile: 0.8413, CalibChips: 300,
		}
		p := effitest.NewProfile("tiny64", 64, 640, 6, 72)
		scenario.Custom = &p
		res, err := conformance.RunPipeline(ctx, scenario)
		if err != nil {
			t.Fatal(err)
		}
		y, it := res.Snap.Pipeline.Yield, res.Snap.Pipeline.AvgIterations
		if y < prevYield {
			t.Errorf("eps %g worsened yield: %.4f < %.4f", eps, y, prevYield)
		}
		if it < prevIters {
			t.Errorf("eps %g lowered avg iterations: %.1f < %.1f — termination windows not driving cost", eps, it, prevIters)
		}
		prevYield, prevIters = y, it
	}
}

// TestConformanceRunChipsNoGoroutineLeak breaks out of an Engine.RunChips
// stream early and verifies the worker pool fully drains.
func TestConformanceRunChipsNoGoroutineLeak(t *testing.T) {
	res := metamorphicResult(t)
	before := runtime.NumGoroutine()
	for range res.Engine.RunChips(context.Background(), res.Chips) {
		break
	}
	// Workers unwind asynchronously after the break; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after early break: %d > %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

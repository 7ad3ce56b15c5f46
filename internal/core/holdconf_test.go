package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"effitest/internal/circuit"
	"effitest/internal/tester"
)

func TestHoldBoundsYieldTarget(t *testing.T) {
	c := tinyCircuit(t, 1)
	cfg := DefaultConfig()
	cfg.HoldSamples = 200
	hb, err := ComputeHoldBounds(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if y, err := HoldYieldEstimate(c, hb, cfg); err != nil || y < cfg.HoldYield-1e-9 {
		t.Fatalf("hold yield %v below target %v (err %v)", y, cfg.HoldYield, err)
	}
}

func TestHoldBoundsGreedyVsExact(t *testing.T) {
	// On a tiny instance the greedy Σλ must match the exact MILP closely
	// (equal in most seeds; never better, since the MILP is optimal).
	c, err := tinyCircuitErr(8, 40, 2, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.HoldSamples = 12
	cfg.HoldYield = 0.80 // allow 2 of 12 samples dropped
	greedy, err := ComputeHoldBounds(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ComputeHoldBoundsExact(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gs, es := greedy.SumLambda(), exact.SumLambda()
	if gs < es-1e-6 {
		t.Fatalf("greedy Σλ %v below exact optimum %v — exact solver wrong", gs, es)
	}
	if gs > es+0.25*math.Abs(es)+1e-6 {
		t.Fatalf("greedy Σλ %v too far above exact %v", gs, es)
	}
	// Both must still satisfy the yield.
	if y, err := HoldYieldEstimate(c, exact, cfg); err != nil || y < cfg.HoldYield-1e-9 {
		t.Fatalf("exact bounds yield %v below %v (err %v)", y, cfg.HoldYield, err)
	}
}

func TestHoldBoundsDroppingHelps(t *testing.T) {
	// With Y < 1 the bounds must be no larger than the Y=1 bounds.
	c := tinyCircuit(t, 2)
	cfg := DefaultConfig()
	cfg.HoldSamples = 100
	cfg.HoldYield = 1.0
	strict, err := ComputeHoldBounds(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.HoldYield = 0.95
	relaxed, err := ComputeHoldBounds(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if relaxed.SumLambda() > strict.SumLambda()+1e-9 {
		t.Fatalf("relaxed Σλ %v exceeds strict %v", relaxed.SumLambda(), strict.SumLambda())
	}
}

// TestHoldBoundsConfigValidation runs every entry point over the §3.5
// samples against each invalid sampling configuration: all must return an
// error — no panic inside the MILP, no NaN yield.
func TestHoldBoundsConfigValidation(t *testing.T) {
	c := tinyCircuit(t, 3)
	hb := &HoldBounds{ByPair: map[[2]int]float64{}}
	entries := map[string]func(Config) error{
		"ComputeHoldBounds": func(cfg Config) error {
			_, err := ComputeHoldBounds(c, cfg)
			return err
		},
		"ComputeHoldBoundsExact": func(cfg Config) error {
			_, err := ComputeHoldBoundsExact(c, cfg)
			return err
		},
		"HoldYieldEstimate": func(cfg Config) error {
			_, err := HoldYieldEstimate(c, hb, cfg)
			return err
		},
	}
	for _, tc := range []struct {
		name    string
		samples int
		yield   float64
	}{
		{"zero-samples", 0, 0.99},
		{"negative-samples", -3, 0.99},
		{"zero-yield", 50, 0},
		{"yield-above-one", 50, 1.5},
		{"nan-yield", 50, math.NaN()},
	} {
		for entry, run := range entries {
			t.Run(tc.name+"/"+entry, func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.HoldSamples, cfg.HoldYield = tc.samples, tc.yield
				if err := run(cfg); err == nil {
					t.Fatal("invalid hold sampling config accepted")
				}
			})
		}
	}
}

// TestHoldSamplesWorkerInvariant pins the parallel hold sampling: the
// samples, and so the bounds, are bit-identical at any worker count.
func TestHoldSamplesWorkerInvariant(t *testing.T) {
	c := tinyCircuit(t, 4)
	cfg := DefaultConfig()
	cfg.HoldSamples = 103 // a ragged final sampler block
	cfg.Workers = 1
	pairs, want, err := sampleHoldQuantities(context.Background(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		cfg.Workers = workers
		gotPairs, got, err := sampleHoldQuantities(context.Background(), c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotPairs, pairs) {
			t.Fatalf("workers=%d: pairs differ", workers)
		}
		for pi := range want {
			for k := range want[pi] {
				if math.Float64bits(got[pi][k]) != math.Float64bits(want[pi][k]) {
					t.Fatalf("workers=%d: sample (%d,%d) = %v, want %v", workers, pi, k, got[pi][k], want[pi][k])
				}
			}
		}
	}
}

// TestHoldStageCancelled checks that the hold stage — most of Prepare's
// time — honours the context.
func TestHoldStageCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := computeHoldBounds(ctx, tinyCircuit(t, 3), DefaultConfig()); !errors.Is(err, context.Canceled) {
		t.Fatalf("hold stage on a cancelled context: err = %v, want context.Canceled", err)
	}
}

func TestLambdaDefault(t *testing.T) {
	var hb *HoldBounds
	if !math.IsInf(hb.Lambda(1, 2), -1) {
		t.Fatal("nil bounds should be unconstrained")
	}
	hb = &HoldBounds{ByPair: map[[2]int]float64{{1, 2}: 0.5}}
	if hb.Lambda(1, 2) != 0.5 {
		t.Fatal("lookup failed")
	}
	if !math.IsInf(hb.Lambda(2, 1), -1) {
		t.Fatal("reverse pair should be unconstrained")
	}
}

func TestConfigureScalableMatchesMILP(t *testing.T) {
	// The key ablation cross-check: both solvers of Eqs. (15)–(18) must
	// agree on feasibility and (nearly) on the achieved ξ.
	c, err := tinyCircuitErr(10, 60, 2, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.HoldSamples = 50
	hb, err := ComputeHoldBounds(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for chipIdx := 0; chipIdx < 6; chipIdx++ {
		ch := tester.SampleChip(c, 31, chipIdx)
		b := InitBounds(c)
		// Simulate exact measurement.
		for p := range c.Paths {
			b.Lo[p] = ch.TrueMax[p] - 0.001
			b.Hi[p] = ch.TrueMax[p] + 0.001
		}
		td := chipQuantile(c, 0.65)
		s, err := Configure(c, b, hb, td, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := configureMILP(c, b, hb, td)
		if err != nil {
			t.Fatal(err)
		}
		if s.Feasible != m.Feasible {
			t.Fatalf("chip %d: feasibility disagreement scalable=%v milp=%v",
				chipIdx, s.Feasible, m.Feasible)
		}
		if !s.Feasible {
			continue
		}
		// ξ values may differ by lattice granularity; both must be valid
		// objective values, and neither may beat the other by more than one
		// step.
		step := c.Buf.StepSize(c.Buffered[0])
		if math.Abs(s.Xi-m.Xi) > step+1e-6 {
			t.Fatalf("chip %d: ξ mismatch scalable %v vs milp %v (step %v)",
				chipIdx, s.Xi, m.Xi, step)
		}
		verifyConfiguration(t, c, b, hb, td, s.X, s.Xi)
		verifyConfiguration(t, c, b, hb, td, m.X, m.Xi)
	}
}

// verifyConfiguration checks the configuration model directly on a
// solution: for every path there must exist an assumed delay D' in
// [l, min(u, Td - xi + xj)] with u - D' ≤ ξ, buffers must be on their
// lattices, and hold bounds must hold.
func verifyConfiguration(t *testing.T, c *circuit.Circuit, b *Bounds, hb *HoldBounds, td float64, x []float64, xi float64) {
	t.Helper()
	const tol = 1e-6
	for p := range c.Paths {
		pt := &c.Paths[p]
		dMax := math.Min(b.Hi[p], td-(x[pt.From]-x[pt.To]))
		if dMax < b.Lo[p]-tol {
			t.Fatalf("path %d: no feasible assumed delay (dMax %v < l %v)", p, dMax, b.Lo[p])
		}
		if shortfall := b.Hi[p] - dMax; shortfall > xi+tol {
			t.Fatalf("path %d: shortfall %v exceeds ξ %v", p, shortfall, xi)
		}
		if lam := hb.Lambda(pt.From, pt.To); !math.IsInf(lam, -1) {
			if x[pt.From]-x[pt.To] < lam-tol {
				t.Fatalf("path %d: hold bound violated", p)
			}
		}
	}
	for f := 0; f < c.NumFF; f++ {
		if !c.Buf.Buffered[f] {
			if x[f] != 0 {
				t.Fatalf("unbuffered FF %d moved", f)
			}
			continue
		}
		if math.Abs(c.Buf.Quantize(f, x[f])-x[f]) > 1e-9 {
			t.Fatalf("buffer %d off lattice: %v", f, x[f])
		}
	}
}

// tinyCircuitErr generates a custom-size tiny circuit.
func tinyCircuitErr(ffs, gates, bufs, paths int, seed int64) (*circuit.Circuit, error) {
	return circuit.Generate(circuit.TinyProfile("custom", ffs, gates, bufs, paths), seed)
}

// BenchmarkSampleHold times the §3.5 Monte-Carlo draw — M = 500 chips of
// short-path hold quantities — that dominates Prepare, on one worker.
func BenchmarkSampleHold(b *testing.B) {
	for _, name := range []string{"s9234", "usb_funct"} {
		p, _ := circuit.ProfileByName(name)
		c, err := circuit.Generate(p, 1)
		if err != nil {
			b.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Workers = 1
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, _, err := sampleHoldQuantities(context.Background(), c, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

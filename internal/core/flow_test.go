package core

import (
	"context"
	"math"
	"testing"

	"effitest/internal/circuit"
	"effitest/internal/stats"
	"effitest/internal/tester"
)

func TestRunBatchTestConvergesAndBrackets(t *testing.T) {
	// The central correctness property of Procedure 2: after the batch test,
	// every path's window is narrower than ε and still brackets the true
	// delay (when the true delay started inside the ±3σ window).
	c := tinyCircuit(t, 1)
	cfg := DefaultConfig()
	ch := tester.SampleChip(c, 11, 0)
	ate := tester.NewATE(ch, cfg.TesterResolution)
	b := InitBounds(c)
	batches := FormBatches(c, rangeInts(c.NumPaths()), cfg)
	for _, batch := range batches {
		if _, _, err := RunBatchTest(context.Background(), ate, c, batch, b, NoHoldBounds, cfg); err != nil {
			t.Fatal(err)
		}
	}
	for p := 0; p < c.NumPaths(); p++ {
		if w := b.Width(p); w >= cfg.Eps {
			t.Fatalf("path %d window %v not resolved", p, w)
		}
		truth := ch.TrueMax[p]
		mu, sd := c.Paths[p].Max.Mean, c.Paths[p].Max.Sigma()
		if truth < mu-3*sd || truth > mu+3*sd {
			continue // outside the initial window: bracketing not guaranteed
		}
		// The tester's resolution rounding can offset bounds by one grid
		// step.
		slack := cfg.TesterResolution + 1e-9
		if truth < b.Lo[p]-slack || truth > b.Hi[p]+slack {
			t.Fatalf("path %d: true delay %v outside final window [%v, %v]",
				p, truth, b.Lo[p], b.Hi[p])
		}
	}
}

func TestRunBatchTestIterationsNearLog2(t *testing.T) {
	// A batch of m paths with aligned windows should need roughly
	// log2(width/ε) iterations in total — far fewer than m·log2(width/ε).
	c := tinyCircuit(t, 2)
	cfg := DefaultConfig()
	ch := tester.SampleChip(c, 13, 0)
	ate := tester.NewATE(ch, cfg.TesterResolution)
	b := InitBounds(c)
	batches := FormBatches(c, rangeInts(c.NumPaths()), cfg)
	var batch []int
	for _, bb := range batches {
		if len(bb) >= 3 {
			batch = bb
			break
		}
	}
	if batch == nil {
		t.Skip("no multi-path batch")
	}
	maxW := 0.0
	for _, p := range batch {
		if w := b.Width(p); w > maxW {
			maxW = w
		}
	}
	iters, _, err := RunBatchTest(context.Background(), ate, c, batch, b, NoHoldBounds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	perPathBinary := int(math.Ceil(math.Log2(maxW / cfg.Eps)))
	naive := perPathBinary * len(batch)
	if iters >= naive {
		t.Fatalf("aligned batch used %d iterations, no better than naive %d", iters, naive)
	}
	if iters < perPathBinary {
		t.Fatalf("iterations %d below the information bound %d", iters, perPathBinary)
	}
}

func TestPredictSigmasShrink(t *testing.T) {
	c := tinyCircuit(t, 3)
	cfg := DefaultConfig()
	groups, tested, err := SelectPaths(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := PredictSigmas(c, groups, tested)
	if err != nil {
		t.Fatal(err)
	}
	testedSet := map[int]bool{}
	for _, p := range tested {
		testedSet[p] = true
	}
	for p := 0; p < c.NumPaths(); p++ {
		if testedSet[p] {
			if !math.IsNaN(sig[p]) {
				t.Fatalf("tested path %d has predicted sigma", p)
			}
			continue
		}
		prior := c.Paths[p].Max.Sigma()
		if math.IsNaN(sig[p]) || sig[p] > prior+1e-9 {
			t.Fatalf("path %d: conditional sigma %v vs prior %v", p, sig[p], prior)
		}
	}
}

func TestPredictBoundsBracketTruth(t *testing.T) {
	// After measuring tested paths exactly (simulate with a tight window
	// around the truth), prediction windows should contain the true delays
	// of untested paths in the vast majority of chips (3σ ≈ 99.7% per path;
	// allow a generous margin for the conservative upper-bound bias).
	c := tinyCircuit(t, 4)
	cfg := DefaultConfig()
	groups, tested, err := SelectPaths(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	testedSet := map[int]bool{}
	for _, p := range tested {
		testedSet[p] = true
	}
	total, inside := 0, 0
	for chipIdx := 0; chipIdx < 30; chipIdx++ {
		ch := tester.SampleChip(c, 99, chipIdx)
		b := InitBounds(c)
		for _, p := range tested {
			b.Lo[p] = ch.TrueMax[p] - cfg.Eps/2
			b.Hi[p] = ch.TrueMax[p] + cfg.Eps/2
		}
		kernelPredict(t, c, groups, tested, b)
		for p := 0; p < c.NumPaths(); p++ {
			if testedSet[p] {
				continue
			}
			total++
			if ch.TrueMax[p] >= b.Lo[p]-1e-9 && ch.TrueMax[p] <= b.Hi[p]+1e-9 {
				inside++
			}
		}
	}
	if total == 0 {
		t.Skip("everything tested")
	}
	if frac := float64(inside) / float64(total); frac < 0.95 {
		t.Fatalf("prediction bracketed only %.1f%% of untested true delays", 100*frac)
	}
}

func TestPrepareAndRunChipEndToEnd(t *testing.T) {
	c := tinyCircuit(t, 5)
	cfg := DefaultConfig()
	plan, err := Prepare(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumTested() == 0 || plan.NumTested() > c.NumPaths() {
		t.Fatalf("npt = %d", plan.NumTested())
	}
	if len(plan.Batches) == 0 {
		t.Fatal("no batches")
	}
	// Td at a comfortable level: every chip should configure and pass.
	td := chipQuantile(c, 0.9)
	passed, configured := 0, 0
	const chips = 25
	for i := 0; i < chips; i++ {
		ch := tester.SampleChip(c, 7, i)
		out, err := plan.RunChip(t.Context(), ch, td, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if out.Iterations <= 0 {
			t.Fatal("no tester iterations recorded")
		}
		if out.Configured {
			configured++
			// Configured chips must have lattice buffer values within range.
			for f := 0; f < c.NumFF; f++ {
				if !c.Buf.Buffered[f] && out.X[f] != 0 {
					t.Fatalf("unbuffered FF %d moved", f)
				}
			}
		}
		if out.Passed {
			passed++
		}
	}
	if configured < chips*3/4 {
		t.Fatalf("only %d/%d chips configurable at q90 period", configured, chips)
	}
	if passed < configured*3/4 {
		t.Fatalf("only %d/%d configured chips passed", passed, configured)
	}
}

func TestRunChipImprovesOverNoBuffers(t *testing.T) {
	// At a period below the no-tuning critical delay quantile, tuning must
	// rescue a meaningful fraction of chips.
	c := tinyCircuit(t, 6)
	cfg := DefaultConfig()
	plan, err := Prepare(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	td := chipQuantile(c, 0.5) // 50% of chips fail without buffers
	const chips = 40
	noBuf, proposed := 0, 0
	zeros := make([]float64, c.NumFF)
	for i := 0; i < chips; i++ {
		ch := tester.SampleChip(c, 21, i)
		if ch.PassesAt(td, zeros) {
			noBuf++
		}
		out, err := plan.RunChip(t.Context(), ch, td, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if out.Passed {
			proposed++
		}
	}
	if proposed <= noBuf {
		t.Fatalf("tuning did not improve yield: %d vs %d of %d", proposed, noBuf, chips)
	}
}

// chipQuantile estimates the q-quantile of the no-buffer critical delay of
// the circuit by Monte Carlo.
func chipQuantile(c *circuit.Circuit, q float64) float64 {
	const n = 400
	xs := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = tester.SampleChip(c, 555, i).CriticalDelay()
	}
	return stats.Quantile(xs, q)
}

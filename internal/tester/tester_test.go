package tester

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"effitest/internal/circuit"
	"effitest/internal/rng"
	"effitest/internal/stats"
)

func tiny(t *testing.T) *circuit.Circuit {
	t.Helper()
	c, err := circuit.Generate(circuit.TinyProfile("tc", 20, 160, 3, 24), 5)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSampleChipDeterministic(t *testing.T) {
	c := tiny(t)
	a := SampleChip(c, 9, 3)
	b := SampleChip(c, 9, 3)
	for i := range a.TrueMax {
		if a.TrueMax[i] != b.TrueMax[i] || a.TrueMin[i] != b.TrueMin[i] {
			t.Fatal("same (seed, index) produced different chips")
		}
	}
	d := SampleChip(c, 9, 4)
	if a.TrueMax[0] == d.TrueMax[0] {
		t.Fatal("different index produced identical first delay")
	}
}

func TestSampleChipMomentsMatchModel(t *testing.T) {
	c := tiny(t)
	const n = 4000
	chips := SampleChips(c, 77, n)
	for _, pi := range []int{0, 5, len(c.Paths) - 1} {
		xs := make([]float64, n)
		for k, ch := range chips {
			xs[k] = ch.TrueMax[pi]
		}
		wantMu, wantSd := c.Paths[pi].Max.Mean, c.Paths[pi].Max.Sigma()
		if d := math.Abs(stats.Mean(xs) - wantMu); d > 4*wantSd/math.Sqrt(n)+1e-3 {
			t.Errorf("path %d: mean off by %v", pi, d)
		}
		if got := stats.StdDev(xs); math.Abs(got-wantSd) > 0.08*wantSd {
			t.Errorf("path %d: sd %v vs model %v", pi, got, wantSd)
		}
	}
}

func TestSampleChipCorrelationMatchesModel(t *testing.T) {
	c := tiny(t)
	corr := c.CorrMatrix()
	const n = 4000
	chips := SampleChips(c, 31, n)
	// Pick an intra-cluster pair (high corr) and a cross-cluster pair.
	var hi, hj, li, lj = -1, -1, -1, -1
	for i := 0; i < len(c.Paths) && (hi < 0 || li < 0); i++ {
		for j := i + 1; j < len(c.Paths); j++ {
			if hi < 0 && corr[i][j] > 0.8 {
				hi, hj = i, j
			}
			if li < 0 && corr[i][j] < 0.5 {
				li, lj = i, j
			}
		}
	}
	if hi < 0 || li < 0 {
		t.Skip("no suitable pairs in tiny circuit")
	}
	check := func(i, j int) {
		xs := make([]float64, n)
		ys := make([]float64, n)
		for k, ch := range chips {
			xs[k] = ch.TrueMax[i]
			ys[k] = ch.TrueMax[j]
		}
		got := stats.Correlation(xs, ys)
		if math.Abs(got-corr[i][j]) > 0.06 {
			t.Errorf("pair (%d,%d): sampled corr %v vs model %v", i, j, got, corr[i][j])
		}
	}
	check(hi, hj)
	check(li, lj)
}

func TestMinNeverExceedsMax(t *testing.T) {
	c := tiny(t)
	for _, ch := range SampleChips(c, 3, 200) {
		for p := range c.Paths {
			if ch.TrueMin[p] > ch.TrueMax[p] {
				t.Fatalf("chip %d path %d: min %v > max %v", ch.Index, p, ch.TrueMin[p], ch.TrueMax[p])
			}
			if ch.TrueMin[p] < 0 || ch.TrueMax[p] < 0 {
				t.Fatalf("negative delay sampled")
			}
		}
	}
}

func TestPassesAtMonotoneInT(t *testing.T) {
	c := tiny(t)
	ch := SampleChip(c, 1, 0)
	x := make([]float64, c.NumFF)
	crit := ch.CriticalDelay()
	if !ch.PassesAt(crit+1e-9, x) {
		t.Fatal("must pass just above critical delay")
	}
	if ch.PassesAt(crit-1e-9, x) {
		t.Fatal("must fail just below critical delay")
	}
}

func TestSetupSlackRespondsToBuffers(t *testing.T) {
	c := tiny(t)
	ch := SampleChip(c, 1, 0)
	p := &c.Paths[0]
	x := make([]float64, c.NumFF)
	base := ch.SetupSlack(0, 1.0, x)
	// Delaying the sink clock edge by δ adds δ of budget.
	x[p.To] += 0.05
	if d := ch.SetupSlack(0, 1.0, x) - base; math.Abs(d-0.05) > 1e-12 {
		t.Fatalf("sink shift changed slack by %v, want 0.05", d)
	}
	x[p.To] = 0
	x[p.From] += 0.05
	if d := ch.SetupSlack(0, 1.0, x) - base; math.Abs(d+0.05) > 1e-12 {
		t.Fatalf("source shift changed slack by %v, want -0.05", d)
	}
}

func TestHoldSlack(t *testing.T) {
	c := tiny(t)
	ch := SampleChip(c, 1, 0)
	x := make([]float64, c.NumFF)
	if !ch.HoldOK(x) {
		t.Fatal("zero skew should satisfy hold (h << dmin)")
	}
	// A huge negative source shift must eventually violate hold.
	p := &c.Paths[0]
	x[p.From] = -(ch.TrueMin[0] + 1)
	if ch.HoldSlack(0, x) >= 0 {
		t.Fatal("expected hold violation")
	}
}

func TestATEStepCountsAndResolution(t *testing.T) {
	c := tiny(t)
	ch := SampleChip(c, 1, 0)
	ate := NewATE(ch, 0.001)
	x := make([]float64, c.NumFF)
	applied, pass, err := ate.Step(1.00049, x, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(applied-1.001) > 1e-12 {
		t.Fatalf("applied = %v, want ceil to 1.001", applied)
	}
	if len(pass) != 2 {
		t.Fatalf("pass len %d", len(pass))
	}
	if ate.Iterations != 1 {
		t.Fatalf("iterations = %d", ate.Iterations)
	}
	// One configuration register per buffer, wide enough for the step
	// indices 0..Steps.
	width := 0
	for 1<<width <= c.Buf.Steps {
		width++
	}
	if want := int64(len(c.Buffered) * width); ate.ScanBits != want {
		t.Fatalf("scan bits = %d, want %d", ate.ScanBits, want)
	}
	ate.Step(1.0, x, []int{0})
	if ate.Iterations != 2 {
		t.Fatal("iteration counter must accumulate")
	}
}

// latticeOracle returns the point of buffer f's lattice nearest to x,
// found by trying every step: the value the hardware realizes for a
// request of x.
func latticeOracle(c *circuit.Circuit, f int, x float64) float64 {
	s := (c.Buf.Hi[f] - c.Buf.Lo[f]) / float64(c.Buf.Steps)
	best := c.Buf.Lo[f]
	for k := 1; k <= c.Buf.Steps; k++ {
		if v := c.Buf.Lo[f] + float64(float64(k)*s); math.Abs(v-x) < math.Abs(best-x) {
			best = v
		}
	}
	return best
}

func TestATEStepMatchesOracle(t *testing.T) {
	c := tiny(t)
	ch := SampleChip(c, 1, 0)
	ate := NewATE(ch, 0)
	// Requested values are realized on the buffer lattice, so the oracle
	// must be evaluated at the nearest lattice points; requests out of
	// range realize the range ends.
	x := make([]float64, c.NumFF)
	for p := range c.Paths {
		x[c.Paths[p].To] = 0.01 // off-lattice sink shifts
	}
	x[c.Buffered[0]] = c.Buf.Hi[c.Buffered[0]] + 1
	x[c.Buffered[1]] = c.Buf.Lo[c.Buffered[1]] - 1
	effective := make([]float64, c.NumFF)
	copy(effective, x)
	for _, f := range c.Buffered {
		effective[f] = latticeOracle(c, f, x[f])
	}
	T := 1.05
	_, pass, err := ate.Step(T, x, []int{0, 3, 7})
	if err != nil {
		t.Fatal(err)
	}
	for f := range x {
		if v := realize(c, f, x); v != effective[f] {
			t.Fatalf("FF %d: realized %v for request %v, oracle %v", f, v, x[f], effective[f])
		}
	}
	for i, p := range []int{0, 3, 7} {
		want := ch.SetupSlack(p, T, effective) >= 0
		if pass[i] != want {
			t.Fatalf("path %d: pass %v, oracle %v", p, pass[i], want)
		}
	}
}

func TestATEScanQuantizesOffLatticeValues(t *testing.T) {
	c := tiny(t)
	f := c.Buffered[0]
	lo, hi, s := c.Buf.Lo[f], c.Buf.Hi[f], c.Buf.StepSize(f)
	for _, tc := range []struct{ request, want float64 }{
		// A hair short of halfway between two steps: the hardware realizes
		// the nearest lattice point, not the request.
		{lo + 3*s + 0.49*s, lo + float64(3*s)},
		{hi + 1, lo + float64(float64(c.Buf.Steps)*s)},
		{lo - 1, lo},
	} {
		x := make([]float64, c.NumFF)
		x[f] = tc.request
		if got := realize(c, f, x); got != tc.want {
			t.Errorf("request %v realized as %v, want %v", tc.request, got, tc.want)
		}
	}
}

// fullVectorStep is ATE.Step as it stood when every step realized the whole
// buffer vector: copy x, quantize every buffered FF, then test each batch
// path against the realized vector. jitter is nil for a noiseless tester.
func fullVectorStep(ch *Chip, applied float64, x []float64, batch []int, jitter *rand.Rand, sigma float64) []bool {
	c := ch.Circuit
	effective := make([]float64, len(x))
	copy(effective, x)
	for _, f := range c.Buffered {
		effective[f] = c.Buf.Quantize(f, x[f])
	}
	pass := make([]bool, len(batch))
	for i, p := range batch {
		threshold := applied
		if jitter != nil {
			threshold += float64(sigma * jitter.NormFloat64())
		}
		pass[i] = ch.SetupSlack(p, threshold, effective) >= 0
	}
	return pass
}

// TestATEStepMatchesFullVectorRealization pins Step's pass bits, which
// realize only the batch's endpoints, to the full-vector realization on
// random requests: off-lattice and out-of-range buffered values and nonzero
// unbuffered entries, on a noiseless and a jittered tester, with batches of
// varying length sharing one reused pass slice.
func TestATEStepMatchesFullVectorRealization(t *testing.T) {
	c := tiny(t)
	r := rand.New(rand.NewSource(29))
	for chip := 0; chip < 4; chip++ {
		ch := SampleChip(c, 7, chip)
		const sigma = 0.004
		noisy := NewNoisyATE(ch, 1e-4, sigma, 11)
		oracleJitter := rng.NewIndexed(11, ch.Index, "ate-jitter", c.Name)
		clean := NewATE(ch, 0)
		x := make([]float64, c.NumFF)
		for step := 0; step < 200; step++ {
			for f := range x {
				x[f] = 0.2 * (r.Float64() - 0.5) // unbuffered entries too
			}
			for _, f := range c.Buffered {
				lo, hi := c.Buf.Lo[f], c.Buf.Hi[f]
				x[f] = lo - 0.5*(hi-lo) + 2*(hi-lo)*r.Float64() // off lattice, often out of range
			}
			batch := make([]int, 1+r.Intn(12))
			for i := range batch {
				batch[i] = r.Intn(c.NumPaths())
			}
			T := ch.CriticalDelay() * (0.7 + 0.4*r.Float64())

			_, got, err := clean.Step(T, x, batch)
			if err != nil {
				t.Fatal(err)
			}
			want := fullVectorStep(ch, clean.AppliedPeriod(T), x, batch, nil, 0)
			if !slices.Equal(got, want) {
				t.Fatalf("chip %d step %d noiseless: pass %v, full-vector %v", chip, step, got, want)
			}
			_, got, err = noisy.Step(T, x, batch)
			if err != nil {
				t.Fatal(err)
			}
			want = fullVectorStep(ch, noisy.AppliedPeriod(T), x, batch, oracleJitter, sigma)
			if !slices.Equal(got, want) {
				t.Fatalf("chip %d step %d jittered: pass %v, full-vector %v", chip, step, got, want)
			}
		}
	}
}

func TestNoisyATEJitterChangesMarginalDecisions(t *testing.T) {
	c := tiny(t)
	ch := SampleChip(c, 1, 0)
	x := make([]float64, c.NumFF)
	// Period exactly at the path delay: noiseless always passes (slack 0);
	// with jitter the decision flips sometimes.
	p := 0
	T := ch.TrueMax[p]
	clean := NewATE(ch, 0)
	_, pass, err := clean.Step(T, x, []int{p})
	if err != nil {
		t.Fatal(err)
	}
	if !pass[0] {
		t.Fatal("noiseless test at exact delay should pass (slack 0)")
	}
	noisy := NewNoisyATE(ch, 0, 0.005, 42)
	flips := 0
	for i := 0; i < 200; i++ {
		_, pass, err := noisy.Step(T, x, []int{p})
		if err != nil {
			t.Fatal(err)
		}
		if !pass[0] {
			flips++
		}
	}
	// Zero-mean jitter at zero slack should fail ≈ half the time.
	if flips < 50 || flips > 150 {
		t.Fatalf("jittered fails = %d/200, want ≈ 100", flips)
	}
	// Far from the threshold, jitter must not matter.
	_, pass, err = noisy.Step(T+1.0, x, []int{p})
	if err != nil {
		t.Fatal(err)
	}
	if !pass[0] {
		t.Fatal("huge slack must pass despite jitter")
	}
}

func TestNoisyATEDeterministicStream(t *testing.T) {
	c := tiny(t)
	ch := SampleChip(c, 1, 0)
	x := make([]float64, c.NumFF)
	T := ch.TrueMax[0]
	a := NewNoisyATE(ch, 0, 0.005, 7)
	b := NewNoisyATE(ch, 0, 0.005, 7)
	for i := 0; i < 50; i++ {
		_, pa, _ := a.Step(T, x, []int{0})
		_, pb, _ := b.Step(T, x, []int{0})
		if pa[0] != pb[0] {
			t.Fatal("same seed produced different jitter streams")
		}
	}
}

func TestATEStepErrors(t *testing.T) {
	c := tiny(t)
	ch := SampleChip(c, 1, 0)
	ate := NewATE(ch, 0)
	if _, _, err := ate.Step(1, make([]float64, 3), []int{0}); err == nil {
		t.Fatal("short x should error")
	}
	if _, _, err := ate.Step(1, make([]float64, c.NumFF), []int{9999}); err == nil {
		t.Fatal("bad path id should error")
	}
}

func TestAppliedPeriodIdealWhenZeroResolution(t *testing.T) {
	ate := &ATE{Resolution: 0}
	if ate.AppliedPeriod(1.2345) != 1.2345 {
		t.Fatal("zero resolution must be exact")
	}
}

package ssta

import (
	"math"
	"testing"

	"effitest/internal/rng"
	"effitest/internal/stats"
)

func TestCanonVarSigma(t *testing.T) {
	c := NewCanon(5, []float64{3, 4}, 0)
	if c.Var() != 25 || c.Sigma() != 5 {
		t.Fatalf("var=%v sigma=%v", c.Var(), c.Sigma())
	}
	c2 := NewCanon(5, nil, 2)
	if c2.Var() != 4 {
		t.Fatalf("rand-only var = %v", c2.Var())
	}
}

func TestAddMeansAndCoefs(t *testing.T) {
	a := NewCanon(1, []float64{1, 0}, 3)
	b := NewCanon(2, []float64{2, 5}, 4)
	s := a
	s.Add(b)
	if s.Mean != 3 {
		t.Fatalf("mean = %v", s.Mean)
	}
	if s.Coef[0] != 3 || s.Coef[1] != 5 {
		t.Fatalf("coef = %v", s.Coef)
	}
	if s.Rand != 5 { // 3-4-5 triangle
		t.Fatalf("rand = %v", s.Rand)
	}
}

func TestScaleNegative(t *testing.T) {
	a := NewCanon(2, []float64{1, -2}, 3)
	s := Scale(a, -2)
	if s.Mean != -4 || s.Coef[0] != -2 || s.Coef[1] != 4 || s.Rand != 6 {
		t.Fatalf("scale wrong: %+v", s)
	}
}

func TestCovCorr(t *testing.T) {
	a := NewCanon(0, []float64{1, 0}, 0)
	b := NewCanon(0, []float64{1, 0}, 0)
	if Corr(a, b) != 1 {
		t.Fatalf("identical forms should have corr 1")
	}
	c := NewCanon(0, []float64{0, 1}, 0)
	if Corr(a, c) != 0 {
		t.Fatalf("orthogonal forms should have corr 0")
	}
	// Independent rand reduces correlation below 1.
	d := NewCanon(0, []float64{1, 0}, 1)
	if cr := Corr(a, d); math.Abs(cr-1/math.Sqrt2) > 1e-12 {
		t.Fatalf("corr = %v, want %v", cr, 1/math.Sqrt2)
	}
	if Corr(a, NewCanon(3, []float64{0, 0}, 0)) != 0 {
		t.Fatal("deterministic corr must be 0")
	}
}

func TestSampleMatchesMoments(t *testing.T) {
	c := NewCanon(10, []float64{0.5, -0.25}, 0.3)
	r := rng.New(2, "canonsample")
	n := 50000
	xs := make([]float64, n)
	for i := range xs {
		z := []float64{r.NormFloat64(), r.NormFloat64()}
		xs[i] = c.Sample(z, r.NormFloat64())
	}
	if m := stats.Mean(xs); math.Abs(m-10) > 0.01 {
		t.Fatalf("sample mean %v", m)
	}
	if s := stats.StdDev(xs); math.Abs(s-c.Sigma()) > 0.01 {
		t.Fatalf("sample sd %v vs %v", s, c.Sigma())
	}
}

func TestCovMatrixIncludesRandOnDiagonal(t *testing.T) {
	cs := []Canon{
		NewCanon(0, []float64{1}, 2),
		NewCanon(0, []float64{1}, 0),
	}
	m := CovMatrix(cs)
	if m.At(0, 0) != 5 { // 1 + 4
		t.Fatalf("Σ[0][0] = %v, want 5", m.At(0, 0))
	}
	if m.At(0, 1) != 1 || m.At(1, 0) != 1 {
		t.Fatalf("off-diagonal = %v", m.At(0, 1))
	}
	if m.At(1, 1) != 1 {
		t.Fatalf("Σ[1][1] = %v", m.At(1, 1))
	}
}

func TestCorrMatrix(t *testing.T) {
	cs := []Canon{
		NewCanon(0, []float64{1, 0}, 0),
		NewCanon(0, []float64{1, 0}, 1),
		NewCanon(0, []float64{0, 2}, 0),
	}
	m := CorrMatrix(cs)
	if m.At(0, 0) != 1 || m.At(1, 1) != 1 {
		t.Fatal("diag must be 1")
	}
	if math.Abs(m.At(0, 1)-1/math.Sqrt2) > 1e-12 {
		t.Fatalf("corr01 = %v", m.At(0, 1))
	}
	if m.At(0, 2) != 0 {
		t.Fatalf("corr02 = %v", m.At(0, 2))
	}
}

func TestClarkMaxDominance(t *testing.T) {
	// max(a,b) mean must be >= both means; for well-separated inputs it
	// approaches the larger.
	a := NewCanon(10, []float64{1}, 0)
	b := NewCanon(0, []float64{0.5}, 0)
	m := Max(a, b)
	if m.Mean < 10-1e-9 {
		t.Fatalf("max mean %v < 10", m.Mean)
	}
	if m.Mean > 10.01 {
		t.Fatalf("max mean %v too large for separated inputs", m.Mean)
	}
}

func TestClarkMaxSymmetricAgainstMC(t *testing.T) {
	// Two iid N(0,1): E[max] = 1/√π, Var[max] = 1 - 1/π.
	a := NewCanon(0, []float64{1, 0}, 0)
	b := NewCanon(0, []float64{0, 1}, 0)
	m := Max(a, b)
	wantMean := 1 / math.Sqrt(math.Pi)
	wantVar := 1 - 1/math.Pi
	if math.Abs(m.Mean-wantMean) > 1e-9 {
		t.Fatalf("Clark mean %v, want %v", m.Mean, wantMean)
	}
	if math.Abs(m.Var()-wantVar) > 1e-9 {
		t.Fatalf("Clark var %v, want %v", m.Var(), wantVar)
	}
}

func TestClarkMaxEqualForms(t *testing.T) {
	// With no private random part, two identical forms are the same random
	// variable, so max(a,a) == a exactly.
	a := NewCanon(3, []float64{1, 2}, 0)
	m := Max(a, a)
	if m.Mean != 3 || m.Var() != a.Var() {
		t.Fatalf("max(a,a) = %+v, want a", m)
	}
	// With a private random part the two arguments are distinct variables
	// sharing factors, so the max is strictly larger in mean.
	b := NewCanon(3, []float64{1, 2}, 0.5)
	mb := Max(b, b)
	if mb.Mean <= 3 {
		t.Fatalf("max of iid-beyond-correlation forms should exceed the mean, got %v", mb.Mean)
	}
}

func TestClarkMaxAgainstMonteCarlo(t *testing.T) {
	a := NewCanon(1.0, []float64{0.4, 0.1}, 0.2)
	b := NewCanon(1.1, []float64{0.3, -0.2}, 0.1)
	m := Max(a, b)
	r := rng.New(8, "clarkmc")
	n := 200000
	xs := make([]float64, n)
	for i := range xs {
		z := []float64{r.NormFloat64(), r.NormFloat64()}
		da := a.Sample(z, r.NormFloat64())
		db := b.Sample(z, r.NormFloat64())
		xs[i] = math.Max(da, db)
	}
	if d := math.Abs(stats.Mean(xs) - m.Mean); d > 0.005 {
		t.Fatalf("Clark mean off by %v", d)
	}
	if d := math.Abs(stats.StdDev(xs) - m.Sigma()); d > 0.01 {
		t.Fatalf("Clark sigma off by %v (mc %v clark %v)", d, stats.StdDev(xs), m.Sigma())
	}
}

func TestMaxAll(t *testing.T) {
	cs := []Canon{
		NewCanon(1, []float64{0}, 0.1),
		NewCanon(5, []float64{0}, 0.1),
		NewCanon(3, []float64{0}, 0.1),
	}
	m := MaxAll(cs)
	if m.Mean < 5-1e-9 {
		t.Fatalf("MaxAll mean %v < 5", m.Mean)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MaxAll(nil) should panic")
		}
	}()
	MaxAll(nil)
}

func TestShiftMean(t *testing.T) {
	a := NewCanon(2, []float64{1}, 1)
	s := ShiftMean(a, 3)
	if s.Mean != 5 || s.Var() != a.Var() {
		t.Fatalf("shift = %+v", s)
	}
}

func TestBasisMismatchPanics(t *testing.T) {
	a := NewCanon(0, []float64{1}, 0)
	b := NewCanon(0, []float64{1, 2}, 0)
	for name, f := range map[string]func(){
		"add": func() { a.Add(b) },
		"cov": func() { Cov(a, b) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

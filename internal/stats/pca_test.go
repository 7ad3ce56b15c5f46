package stats

import (
	"math"
	"testing"

	"effitest/internal/la"
	"effitest/internal/rng"
)

func TestPCADiagonalCov(t *testing.T) {
	cov := la.NewMatrixFrom([][]float64{{9, 0}, {0, 4}})
	p, err := NewPCA(cov)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Vars[0]-9) > 1e-10 || math.Abs(p.Vars[1]-4) > 1e-10 {
		t.Fatalf("vars = %v", p.Vars)
	}
	if p.TotalVar() != 13 {
		t.Fatalf("total var = %v", p.TotalVar())
	}
}

func TestPCAOneStrongComponent(t *testing.T) {
	// Covariance of x_i = a_i * z + small noise: nearly rank-1.
	a := []float64{1, 2, 3}
	n := len(a)
	cov := la.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			cov.Set(i, j, a[i]*a[j])
		}
		cov.Add(i, i, 1e-4)
	}
	p, err := NewPCA(cov)
	if err != nil {
		t.Fatal(err)
	}
	if k := sharedComponents(p, 1); k != 1 {
		t.Errorf("k = %d, want 1", k)
	}
	// The variable with the largest |a_i| should be the representative.
	reps := p.SelectRepresentatives(1)
	if len(reps) != 1 || reps[0] != 2 {
		t.Errorf("representatives = %v, want [2]", reps)
	}
}

func TestSelectRepresentativesDistinct(t *testing.T) {
	r := rng.New(4, "pcasel")
	n := 8
	b := la.NewMatrix(n, n)
	for i := range b.Data {
		b.Data[i] = r.NormFloat64()
	}
	cov := b.Mul(b.T())
	p, err := NewPCA(cov)
	if err != nil {
		t.Fatal(err)
	}
	reps := p.SelectRepresentatives(5)
	if len(reps) != 5 {
		t.Fatalf("got %d reps", len(reps))
	}
	seen := map[int]bool{}
	for _, v := range reps {
		if seen[v] {
			t.Fatalf("duplicate representative %d", v)
		}
		seen[v] = true
	}
	// Asking for more components than variables caps at n.
	if got := p.SelectRepresentatives(100); len(got) != n {
		t.Fatalf("overask gave %d", len(got))
	}
}

func TestPCARejectsNonSquare(t *testing.T) {
	if _, err := NewPCA(la.NewMatrix(2, 3)); err == nil {
		t.Error("expected error")
	}
}

func TestPCACoefficientRecoversCovariance(t *testing.T) {
	// Σ_ij should equal Σ_c coef(i,c)*coef(j,c).
	r := rng.New(10, "pcacov")
	n := 5
	b := la.NewMatrix(n, n)
	for i := range b.Data {
		b.Data[i] = r.NormFloat64()
	}
	cov := b.Mul(b.T())
	p, err := NewPCA(cov)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for c := 0; c < n; c++ {
				s += p.Coefficient(i, c) * p.Coefficient(j, c)
			}
			if math.Abs(s-cov.At(i, j)) > 1e-7 {
				t.Fatalf("Σ[%d][%d]: pca gives %v, want %v", i, j, s, cov.At(i, j))
			}
		}
	}
}

package la

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewMatrixFrom(t *testing.T) {
	m := NewMatrixFrom([][]float64{{1, 2, 3}, {4, 5, 6}})
	if m.Rows != 2 || m.Cols != 3 {
		t.Fatalf("shape = %dx%d, want 2x3", m.Rows, m.Cols)
	}
	if m.At(1, 2) != 6 {
		t.Fatalf("At(1,2) = %v, want 6", m.At(1, 2))
	}
}

func TestNewMatrixFromRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged input")
		}
	}()
	NewMatrixFrom([][]float64{{1, 2}, {3}})
}

func TestIdentityMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomMatrix(rng, 5, 5)
	i := Identity(5)
	if d := a.Mul(i).MaxAbsDiff(a); d > 1e-14 {
		t.Fatalf("A*I != A, diff %g", d)
	}
	if d := i.Mul(a).MaxAbsDiff(a); d > 1e-14 {
		t.Fatalf("I*A != A, diff %g", d)
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(6), 1+rng.Intn(6)
		a := randomMatrix(rng, r, c)
		return a.T().T().MaxAbsDiff(a) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulAssociativity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomMatrix(rng, 3, 4)
		b := randomMatrix(rng, 4, 2)
		c := randomMatrix(rng, 2, 5)
		left := a.Mul(b).Mul(c)
		right := a.Mul(b.Mul(c))
		return left.MaxAbsDiff(right) < 1e-10
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulVecMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomMatrix(rng, 4, 6)
	v := randomVec(rng, 6)
	got := a.MulVec(v)
	vm := NewMatrix(6, 1)
	copy(vm.Data, v)
	want := a.Mul(vm)
	for i := range got {
		if !almostEq(got[i], want.At(i, 0), 1e-12) {
			t.Fatalf("MulVec[%d] = %v, want %v", i, got[i], want.At(i, 0))
		}
	}
}

func TestSubmatrix(t *testing.T) {
	m := NewMatrixFrom([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	s := m.Submatrix([]int{0, 2}, []int{1, 2})
	want := NewMatrixFrom([][]float64{{2, 3}, {8, 9}})
	if s.MaxAbsDiff(want) != 0 {
		t.Fatalf("submatrix = %v, want %v", s.Data, want.Data)
	}
}

func TestDotNorm(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestAddSubScale(t *testing.T) {
	a := NewMatrixFrom([][]float64{{1, 2}, {3, 4}})
	b := NewMatrixFrom([][]float64{{5, 6}, {7, 8}})
	if got := b.SubM(a).At(0, 0); got != 4 {
		t.Fatalf("SubM = %v, want 4", got)
	}
	if got := a.Clone().Scale(3).At(1, 0); got != 9 {
		t.Fatalf("Scale = %v, want 9", got)
	}
}

func TestRowColClone(t *testing.T) {
	m := NewMatrixFrom([][]float64{{1, 2}, {3, 4}})
	r := m.Row(1)
	c := m.Col(0)
	if r[0] != 3 || r[1] != 4 || c[0] != 1 || c[1] != 3 {
		t.Fatalf("Row/Col wrong: %v %v", r, c)
	}
	cl := m.Clone()
	cl.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Fatal("Clone did not copy data")
	}
}

func TestIsSymmetric(t *testing.T) {
	s := NewMatrixFrom([][]float64{{2, 1}, {1, 2}})
	if !s.IsSymmetric(0) {
		t.Fatal("expected symmetric")
	}
	n := NewMatrixFrom([][]float64{{2, 1}, {0, 2}})
	if n.IsSymmetric(1e-9) {
		t.Fatal("expected asymmetric")
	}
	if NewMatrix(2, 3).IsSymmetric(0) {
		t.Fatal("non-square cannot be symmetric")
	}
}

// randomMatrix generates entries in [-1, 1).
func randomMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = 2*rng.Float64() - 1
	}
	return m
}

func randomVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 2*rng.Float64() - 1
	}
	return v
}

// randomSPD builds A = BBᵀ + n*I which is SPD.
func randomSPD(rng *rand.Rand, n int) *Matrix {
	b := randomMatrix(rng, n, n)
	a := b.Mul(b.T())
	for i := 0; i < n; i++ {
		a.Add(i, i, float64(n))
	}
	return a
}

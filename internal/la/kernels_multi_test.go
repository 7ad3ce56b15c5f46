package la

import (
	"math/rand"
	"testing"
)

// batchWidths is the K axis the multi-RHS contracts are pinned across: the
// degenerate single column, tiny blocks, a prime width and a cache-line
// spanning one.
var batchWidths = []int{1, 2, 7, 64}

func randomLower(r *rand.Rand, n int) *Matrix {
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for k := 0; k < i; k++ {
			l.Set(i, k, r.NormFloat64())
		}
		l.Set(i, i, 1+r.Float64()) // well away from zero
	}
	return l
}

func randomBlock(r *rand.Rand, rows, cols int) *Matrix {
	b := NewMatrix(rows, cols)
	for i := range b.Data {
		b.Data[i] = r.NormFloat64()
	}
	return b
}

// column extracts column j of a block as a vector.
func column(b *Matrix, j int) []float64 {
	out := make([]float64, b.Rows)
	for i := range out {
		out[i] = b.At(i, j)
	}
	return out
}

// requireColumnsEqual pins every column of got bitwise against the
// allocating function's result for that column.
func requireColumnsEqual(t *testing.T, what string, got *Matrix, want func(j int) []float64) {
	t.Helper()
	for j := 0; j < got.Cols; j++ {
		w := want(j)
		for i := range w {
			if got.At(i, j) != w[i] {
				t.Fatalf("%s: column %d row %d: multi %v != allocating %v", what, j, i, got.At(i, j), w[i])
			}
		}
	}
}

func TestSolveLowerMultiMatchesVector(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 3, 17} {
		l := randomLower(r, n)
		for _, k := range batchWidths {
			b := randomBlock(r, n, k)
			dst := NewMatrix(n, k)
			SolveLowerMultiTo(dst, l, b)
			requireColumnsEqual(t, "solve-lower", dst, func(j int) []float64 {
				return SolveLower(l, column(b, j))
			})

			// In-place: dst aliasing b must give the same bits.
			alias := b.Clone()
			SolveLowerMultiTo(alias, l, alias)
			for i := range alias.Data {
				if alias.Data[i] != dst.Data[i] {
					t.Fatalf("n=%d k=%d: in-place solve diverges at %d", n, k, i)
				}
			}
		}
	}
}

func TestSolveUpperTMultiMatchesVector(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for _, n := range []int{1, 3, 17} {
		l := randomLower(r, n)
		for _, k := range batchWidths {
			b := randomBlock(r, n, k)
			dst := NewMatrix(n, k)
			SolveUpperTMultiTo(dst, l, b)
			requireColumnsEqual(t, "solve-upperT", dst, func(j int) []float64 {
				return SolveUpperT(l, column(b, j))
			})

			alias := b.Clone()
			SolveUpperTMultiTo(alias, l, alias)
			for i := range alias.Data {
				if alias.Data[i] != dst.Data[i] {
					t.Fatalf("n=%d k=%d: in-place solve diverges at %d", n, k, i)
				}
			}
		}
	}
}

func TestSolveCholeskyMultiMatchesVector(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	n := 12
	l := randomLower(r, n)
	for _, k := range batchWidths {
		b := randomBlock(r, n, k)
		dst := b.Clone()
		SolveCholeskyMultiTo(dst, l, dst)
		requireColumnsEqual(t, "solve-cholesky", dst, func(j int) []float64 {
			return CholSolve(l, column(b, j))
		})
	}
}

func TestMulMatMatchesVector(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for _, shape := range [][2]int{{1, 1}, {4, 6}, {9, 3}} {
		rows, inner := shape[0], shape[1]
		m := randomBlock(r, rows, inner)
		for _, k := range batchWidths {
			b := randomBlock(r, inner, k)
			dst := NewMatrix(rows, k)
			MulMatTo(dst, m, b)
			requireColumnsEqual(t, "mulmat", dst, func(j int) []float64 {
				return m.MulVec(column(b, j))
			})
		}
	}
}

func TestMultiKernelShapePanics(t *testing.T) {
	l := randomLower(rand.New(rand.NewSource(11)), 4)
	bad := NewMatrix(3, 2)
	for name, fn := range map[string]func(){
		"mulmat":      func() { MulMatTo(NewMatrix(4, 2), l, bad) },
		"lower":       func() { SolveLowerMultiTo(NewMatrix(4, 2), l, bad) },
		"upperT":      func() { SolveUpperTMultiTo(NewMatrix(4, 2), l, bad) },
		"mulmat-dst":  func() { MulMatTo(NewMatrix(3, 2), l, NewMatrix(4, 2)) },
		"lower-dst":   func() { SolveLowerMultiTo(NewMatrix(4, 3), l, NewMatrix(4, 2)) },
		"take-matrix": func() { new(Workspace).TakeMatrix(-1, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: shape mismatch did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestTakeMatrixAliasesArena(t *testing.T) {
	var ws Workspace
	m := ws.TakeMatrix(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("unexpected shape: %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	for i := range m.Data {
		m.Data[i] = float64(i)
	}
	ws.Reset()
	again := ws.TakeMatrix(3, 4)
	if &again.Data[0] != &m.Data[0] {
		t.Fatal("TakeMatrix after Reset did not reuse the arena")
	}
}

package la

import "fmt"

// This file holds the allocation-free multi-RHS (TRSM-shaped) kernel layer:
// the K-column, in-place counterparts of MulVec / SolveLower / SolveUpperT /
// CholSolve. An n×K right-hand-side block batches K independent systems that share one
// factor into a single kernel call, so the factor streams through the cache
// once per call instead of once per system. The per-chip prediction path
// runs them at K = 1, through stats.CondPredictor.MuTo.
//
// Contract shared by every kernel here: column j of the result is computed
// with exactly the same floating-point operations, in exactly the same
// order, as the corresponding allocating function applied to column j alone
// — so batching never changes a result bit, only where the arithmetic
// happens and where the output lands.
// RHS blocks are ordinary row-major Matrix values: row i holds element i of
// all K systems contiguously, which is what keeps the inner per-column loops
// unit-stride.

// TakeMatrix returns a rows×cols matrix whose storage is arena scratch taken
// from the workspace (rows*cols floats). Like Take, the contents are
// unspecified and the matrix stays valid across Reset until the arena is
// re-taken.
func (w *Workspace) TakeMatrix(rows, cols int) Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("la: workspace matrix %dx%d", rows, cols))
	}
	return Matrix{Rows: rows, Cols: cols, Data: w.Take(rows * cols)}
}

// MulMatTo computes dst = m*b without allocating, where b is a K-column RHS
// block (m.Cols×K) and dst is m.Rows×K. dst must not alias b or m. Column j
// of dst is bit-identical to m.MulVec(b_j).
func MulMatTo(dst, m, b *Matrix) {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("la: mulmat shape mismatch %dx%d * %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != m.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("la: mulmat dst %dx%d, want %dx%d", dst.Rows, dst.Cols, m.Rows, b.Cols))
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		out := dst.RowView(r)
		for j := range out {
			out[j] = 0
		}
		// Accumulate a*b[c] in ascending c for every column at once: per
		// column this is the exact operation sequence of MulVec.
		for c, a := range row {
			brow := b.RowView(c)
			for j, v := range brow {
				out[j] += a * v
			}
		}
	}
}

// SolveLowerMultiTo solves L*Y = B column-by-column into dst, where L is
// lower triangular with nonzero diagonal and B is an n×K RHS block. dst may
// alias b (forward substitution reads row i before writing it). Column j is
// bit-identical to SolveLower on column j.
func SolveLowerMultiTo(dst, l, b *Matrix) {
	n := l.Rows
	if b.Rows != n || dst.Rows != n || dst.Cols != b.Cols {
		panic(fmt.Sprintf("la: trsm-lower shape mismatch L %dx%d, B %dx%d, dst %dx%d",
			l.Rows, l.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	for i := 0; i < n; i++ {
		out := dst.RowView(i)
		if dst != b {
			copy(out, b.RowView(i))
		}
		lrow := l.Data[i*l.Cols : i*l.Cols+i]
		for k, a := range lrow {
			prev := dst.RowView(k)
			for j, v := range prev {
				out[j] -= a * v
			}
		}
		d := l.At(i, i)
		for j := range out {
			out[j] /= d
		}
	}
}

// SolveUpperTMultiTo solves Lᵀ*X = Y column-by-column into dst given the
// lower-triangular L, over an n×K RHS block. dst may alias b. Column j is
// bit-identical to SolveUpperT on column j.
func SolveUpperTMultiTo(dst, l, b *Matrix) {
	n := l.Rows
	if b.Rows != n || dst.Rows != n || dst.Cols != b.Cols {
		panic(fmt.Sprintf("la: trsm-upperT shape mismatch L %dx%d, B %dx%d, dst %dx%d",
			l.Rows, l.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	for i := n - 1; i >= 0; i-- {
		out := dst.RowView(i)
		if dst != b {
			copy(out, b.RowView(i))
		}
		for k := i + 1; k < n; k++ {
			a := l.At(k, i)
			prev := dst.RowView(k)
			for j, v := range prev {
				out[j] -= a * v
			}
		}
		d := l.At(i, i)
		for j := range out {
			out[j] /= d
		}
	}
}

// SolveCholeskyMultiTo solves A*X = B for a K-column RHS block given the
// Cholesky factor L of A, without allocating. dst may alias b — the common
// fully-in-place call is SolveCholeskyMultiTo(x, l, x). Column j is
// bit-identical to CholSolve on column j.
func SolveCholeskyMultiTo(dst, l, b *Matrix) {
	SolveLowerMultiTo(dst, l, b)
	SolveUpperTMultiTo(dst, l, dst)
}

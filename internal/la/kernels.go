package la

import "fmt"

// This file holds the reusable Workspace arena the allocation-free kernels
// (kernels_multi.go) take their scratch from.

// Workspace is a reusable arena of float64 scratch for the in-place kernels.
// A hot loop takes slices per iteration and calls Reset between iterations;
// after the arena has grown to its steady-state size, Take never allocates.
// A Workspace is not safe for concurrent use — give each worker its own.
type Workspace struct {
	buf  []float64
	used int
}

// Reset recycles the arena: every slice previously returned by Take remains
// valid (it aliases the old backing array) but the capacity is reusable.
func (w *Workspace) Reset() { w.used = 0 }

// Require grows the arena so that Takes totalling n floats will not
// allocate. It does not disturb slices already taken.
func (w *Workspace) Require(n int) {
	if w.used+n > len(w.buf) {
		w.grow(n)
	}
}

// Take returns a length-n scratch slice from the arena. The contents are
// unspecified — callers must fully overwrite before reading. Taking beyond
// the current capacity allocates a larger backing array (slices taken
// earlier stay valid on the old one); pre-size with Require to keep the
// steady state allocation-free.
func (w *Workspace) Take(n int) []float64 {
	if n < 0 {
		panic(fmt.Sprintf("la: workspace take %d", n))
	}
	if w.used+n > len(w.buf) {
		w.grow(n)
	}
	s := w.buf[w.used : w.used+n : w.used+n]
	w.used += n
	return s
}

func (w *Workspace) grow(n int) {
	newLen := 2 * len(w.buf)
	if newLen < w.used+n {
		newLen = w.used + n
	}
	// Slices already taken keep aliasing the old array; the region below
	// w.used in the new array is simply unused until the next Reset.
	w.buf = make([]float64, newLen)
}

// RowView returns row r as a slice aliasing the matrix storage — the
// zero-copy counterpart of Row. The caller must not grow it.
func (m *Matrix) RowView(r int) []float64 {
	return m.Data[r*m.Cols : (r+1)*m.Cols : (r+1)*m.Cols]
}

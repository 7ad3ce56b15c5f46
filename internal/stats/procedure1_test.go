package stats

import (
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"effitest/internal/la"
)

// Shapes of the covariances procedure1Case builds.
const (
	shapePlain = iota // low rank plus noise
	shapeTie          // the two strongest rows identical: an arg-max tie
	shapeAtTau        // one eigenvalue placed on kaiser × mean
	numShapes
)

// procedure1Case builds an n×n covariance (2 ≤ n ≤ 41) of the given shape
// from seed: a rank-r (1 ≤ r ≤ 4) loading matrix with decaying column
// scales plus a private variance per row, or for shapeAtTau a random
// orthogonal basis with one eigenvalue solved to sit on the threshold.
func procedure1Case(seed int64, n, r, shape int, kaiser float64) *la.Matrix {
	rnd := rand.New(rand.NewSource(seed))
	cov := la.NewMatrix(n, n)
	if shape == shapeAtTau {
		g := la.NewMatrix(n, n)
		for i := range n {
			for j := range i + 1 {
				v := rnd.NormFloat64()
				g.Set(i, j, v)
				g.Set(j, i, v)
			}
		}
		_, q, err := la.EigenSym(g, 0)
		if err != nil {
			panic(err)
		}
		lam := make([]float64, n)
		sum := 0.0
		for i := 1; i < n; i++ {
			lam[i] = math.Exp(2 * rnd.NormFloat64())
			sum += lam[i]
		}
		// λ₀ = kaiser·(λ₀ + sum)/n.
		lam[0] = kaiser * sum / (float64(n) - kaiser)
		for i := range n {
			for j := range i + 1 {
				s := 0.0
				for c := range n {
					s += q.At(i, c) * lam[c] * q.At(j, c)
				}
				cov.Set(i, j, s)
				cov.Set(j, i, s)
			}
		}
		return cov
	}
	load := la.NewMatrix(n, r)
	for c := range r {
		scale := math.Pow(0.3, float64(c))
		for i := range n {
			load.Set(i, c, scale*rnd.NormFloat64())
		}
	}
	noise := make([]float64, n)
	for i := range noise {
		noise[i] = 0.01 * math.Exp(rnd.NormFloat64())
	}
	if shape == shapeTie {
		big := 0.0
		for i := range n {
			big = math.Max(big, math.Abs(load.At(i, 0)))
		}
		for c := range r {
			load.Set(0, c, load.At(1, c))
		}
		load.Set(0, 0, 3*big)
		load.Set(1, 0, 3*big)
		noise[0] = noise[1]
	}
	for i := range n {
		for j := range i + 1 {
			s := 0.0
			for c := range r {
				s += load.At(i, c) * load.At(j, c)
			}
			if i == j {
				s += noise[i]
			}
			cov.Set(i, j, s)
			cov.Set(j, i, s)
		}
	}
	return cov
}

// checkProcedure1 requires Procedure1 to equal Procedure1Jacobi on cov and
// reports whether the fast path certified its answer.
func checkProcedure1(t *testing.T, cov *la.Matrix, kaiser float64) bool {
	t.Helper()
	k, sel, certified, err := Procedure1(cov, kaiser)
	kJ, selJ, errJ := Procedure1Jacobi(cov, kaiser)
	if (err == nil) != (errJ == nil) {
		t.Fatalf("errors differ: %v vs Jacobi's %v", err, errJ)
	}
	if k != kJ || !slices.Equal(sel, selJ) {
		t.Fatalf("certified=%v: k %d selected %v, Jacobi says %d %v", certified, k, sel, kJ, selJ)
	}
	return certified
}

// FuzzProcedure1Certificate feeds the certified Procedure 1 low-rank-plus-
// noise covariances, forced arg-max ties and eigenvalues on the threshold:
// it must either certify Jacobi's (k, selected) or fall back to Jacobi.
func FuzzProcedure1Certificate(f *testing.F) {
	for shape := range numShapes {
		f.Add(int64(shape+1), uint8(12), uint8(1), uint8(shape), uint8(10))
		f.Add(int64(shape+7), uint8(40), uint8(3), uint8(shape), uint8(10))
	}
	var certified, fallbacks atomic.Int64
	f.Cleanup(func() { f.Logf("%d certified, %d fell back to Jacobi", certified.Load(), fallbacks.Load()) })
	f.Fuzz(func(t *testing.T, seed int64, n, r, shape, kaiser10 uint8) {
		kaiser := float64(kaiser10%30) / 10
		cov := procedure1Case(seed, 2+int(n%40), 1+int(r%4), int(shape%numShapes), kaiser)
		if checkProcedure1(t, cov, kaiser) {
			certified.Add(1)
		} else {
			fallbacks.Add(1)
		}
	})
}

// TestProcedure1Certificate runs the fuzz shapes over a fixed grid. Ties and
// eigenvalues on the threshold must always fall back, and the plain rank-1
// shape must certify most of the time, or the fast path would be dead code.
func TestProcedure1Certificate(t *testing.T) {
	var certified, total [numShapes]int
	for seed := range int64(60) {
		for shape := range numShapes {
			for _, kaiser := range []float64{0.7, 1, 1.5} {
				n := 2 + int(seed*7%40)
				r := 1 + int(seed%2)
				if shape == shapePlain {
					r = 1
				}
				cov := procedure1Case(seed, n, r, shape, kaiser)
				total[shape]++
				if checkProcedure1(t, cov, kaiser) {
					certified[shape]++
				}
			}
		}
	}
	for shape, name := range []string{"plain", "tie", "at-tau"} {
		t.Logf("%s: %d of %d certified", name, certified[shape], total[shape])
	}
	if certified[shapeTie] != 0 || certified[shapeAtTau] != 0 {
		t.Fatal("a tie or an eigenvalue on the threshold was certified")
	}
	if 2*certified[shapePlain] < total[shapePlain] {
		t.Fatal("the fast path certified under half of the rank-1 cases")
	}
}

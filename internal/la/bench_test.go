package la

import (
	"math/rand"
	"testing"
)

func benchSPD(n int) *Matrix {
	rng := rand.New(rand.NewSource(1))
	return randomSPD(rng, n)
}

func BenchmarkCholesky64(b *testing.B) {
	a := benchSPD(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Cholesky(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEigenSym64(b *testing.B) {
	a := benchSPD(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := EigenSym(a, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatMul64(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x := randomMatrix(rng, 64, 64)
	y := randomMatrix(rng, 64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Mul(y)
	}
}

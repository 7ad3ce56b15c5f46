package skew

import (
	"testing"

	"effitest/internal/rng"
)

// benchInstance builds a ring-plus-chords timing graph with buffers on a
// third of the FFs.
func benchInstance(n int) ([]Timing, Buffers) {
	r := rng.New(3, "skewbench")
	var arcs []Timing
	for i := 0; i < n; i++ {
		arcs = append(arcs, Timing{From: i, To: (i + 1) % n, Setup: 2 + 4*r.Float64(), Hold: -1})
		if r.Float64() < 0.5 {
			k := r.Intn(n)
			if k != i {
				arcs = append(arcs, Timing{From: i, To: k, Setup: 2 + 4*r.Float64(), Hold: -1})
			}
		}
	}
	var buffered []int
	for i := 0; i < n; i += 3 {
		buffered = append(buffered, i)
	}
	return arcs, Uniform(n, buffered, -1, 1, 20)
}

func BenchmarkFeasibleDiscrete100(b *testing.B) {
	arcs, bufs := benchInstance(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FeasibleDiscrete(7, arcs, bufs)
	}
}

package lp

import (
	"context"
	"testing"

	"effitest/internal/rng"
)

// benchProblem builds a random feasible bounded LP with v variables and c
// constraints.
func benchProblem(v, c int) *Problem {
	r := rng.New(7, "lpbench")
	p := NewProblem()
	vars := make([]int, v)
	for i := range vars {
		vars[i] = p.AddVar("x", 0, 10, r.Float64()*2-1)
	}
	for j := 0; j < c; j++ {
		terms := make([]Term, 0, v/2)
		for i := 0; i < v; i++ {
			if r.Float64() < 0.5 {
				terms = append(terms, Term{Var: vars[i], Coef: r.Float64()})
			}
		}
		if len(terms) == 0 {
			terms = append(terms, Term{Var: vars[0], Coef: 1})
		}
		p.AddConstraint("c", terms, LE, 5+10*r.Float64())
	}
	return p
}

func BenchmarkSimplex20x30(b *testing.B) {
	p := benchProblem(20, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := p.Solve(context.Background())
		if err != nil || sol.Status != StatusOptimal {
			b.Fatalf("%v %v", sol.Status, err)
		}
	}
}

func BenchmarkSimplex60x90(b *testing.B) {
	p := benchProblem(60, 90)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := p.Solve(context.Background())
		if err != nil || sol.Status != StatusOptimal {
			b.Fatalf("%v %v", sol.Status, err)
		}
	}
}

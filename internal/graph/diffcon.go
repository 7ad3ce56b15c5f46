package graph

import "math"

// DiffConstraint encodes x[A] - x[B] <= C.
type DiffConstraint struct {
	A, B int
	C    float64
}

// SolveDifference solves a system of difference constraints over n
// variables. It returns an assignment satisfying every constraint, or
// ok=false if the system is infeasible (the constraint graph has a negative
// cycle). The solution is normalized so that x[ref] == 0.
func SolveDifference(n int, cons []DiffConstraint, ref int) (x []float64, ok bool) {
	// Constraint x_a - x_b <= c maps to edge b -> a with weight c; shortest
	// path potentials then satisfy d[a] <= d[b] + c.
	g := NewDigraph(n)
	for _, c := range cons {
		g.AddEdge(c.B, c.A, c.C)
	}
	dist, ok := g.BellmanFordMulti()
	if !ok {
		return nil, false
	}
	x = make([]float64, n)
	shift := dist[ref]
	for i := range x {
		x[i] = dist[i] - shift
	}
	return x, true
}

// IntDiffConstraint encodes x[A] - x[B] <= C over integers.
type IntDiffConstraint struct {
	A, B int
	C    int64
}

// SolveIntDifferenceInto solves an integral difference-constraint system
// over caller-owned potentials. With integer constants, Bellman–Ford
// potentials are integral, so the assignment is exact — this is what makes
// discrete buffer-step feasibility checks exact in EffiTest's configuration
// solver. dist has one entry per variable, its contents on entry are
// ignored, and on success it holds the assignment normalized so
// dist[ref] == 0. On failure (a negative cycle) dist holds no meaningful
// values.
func SolveIntDifferenceInto(dist []int64, cons []IntDiffConstraint, ref int) bool {
	const inf = math.MaxInt64 / 4
	n := len(dist)
	clear(dist) // multi-source: all zeros
	for iter := 0; iter < n; iter++ {
		changed := false
		for _, c := range cons {
			if dist[c.B] >= inf {
				continue
			}
			if nd := dist[c.B] + c.C; nd < dist[c.A] {
				dist[c.A] = nd
				changed = true
			}
		}
		if !changed {
			break
		}
		if iter == n-1 {
			// Still changing after n passes: negative cycle.
			for _, c := range cons {
				if dist[c.B]+c.C < dist[c.A] {
					return false
				}
			}
		}
	}
	shift := dist[ref]
	for i := range dist {
		dist[i] -= shift
	}
	return true
}

package graph

import (
	"math"
	"testing"

	"effitest/internal/rng"
)

// Multi-source distances are shortest paths from a virtual source joined
// to every node by a zero-weight edge.
func TestBellmanFordShortestPath(t *testing.T) {
	g := NewDigraph(5)
	g.AddEdge(0, 1, -4)
	g.AddEdge(0, 2, -1)
	g.AddEdge(2, 1, -2)
	g.AddEdge(1, 3, -1)
	g.AddEdge(2, 3, -5)
	dist, ok := g.BellmanFordMulti()
	if !ok {
		t.Fatal("unexpected negative cycle")
	}
	want := []float64{0, -4, -1, -6, 0}
	for i, w := range want {
		if dist[i] != w {
			t.Errorf("dist[%d] = %v, want %v", i, dist[i], w)
		}
	}
}

func TestBellmanFordNegativeEdgesOK(t *testing.T) {
	g := NewDigraph(3)
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 2, -3)
	dist, ok := g.BellmanFordMulti()
	if !ok || dist[0] != 0 || dist[1] != 0 || dist[2] != -3 {
		t.Fatalf("dist = %v ok = %v", dist, ok)
	}
}

func TestBellmanFordNegativeCycle(t *testing.T) {
	g := NewDigraph(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, -2)
	g.AddEdge(2, 1, 1) // cycle 1->2->1 weight -1
	if _, ok := g.BellmanFordMulti(); ok {
		t.Fatal("negative cycle not detected")
	}
}

func TestBellmanFordUnreachableNegativeCycle(t *testing.T) {
	// No node reaches the cycle from node 0, but every node is a source, so
	// the cycle is still found.
	g := NewDigraph(4)
	g.AddEdge(2, 3, -2)
	g.AddEdge(3, 2, 1)
	if _, ok := g.BellmanFordMulti(); ok {
		t.Fatal("multi-source must see the cycle")
	}
}

func TestMinMeanCycleSimple(t *testing.T) {
	// Cycle 0->1->0 with weights 2 and 4: mean 3.
	g := NewDigraph(2)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 0, 4)
	m, ok := g.MinMeanCycle()
	if !ok || math.Abs(m-3) > 1e-9 {
		t.Fatalf("min mean = %v ok=%v, want 3", m, ok)
	}
}

func TestMinMeanCyclePicksSmallest(t *testing.T) {
	// Two disjoint cycles: means 3 and 1.5; min is 1.5, max is 3.
	g := NewDigraph(4)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 0, 4)
	g.AddEdge(2, 3, 1)
	g.AddEdge(3, 2, 2)
	m, ok := g.MinMeanCycle()
	if !ok || math.Abs(m-1.5) > 1e-9 {
		t.Fatalf("min mean = %v, want 1.5", m)
	}
	mx, ok := g.MaxMeanCycle()
	if !ok || math.Abs(mx-3) > 1e-9 {
		t.Fatalf("max mean = %v, want 3", mx)
	}
}

func TestMeanCycleAcyclic(t *testing.T) {
	g := NewDigraph(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	if _, ok := g.MinMeanCycle(); ok {
		t.Fatal("acyclic graph must report no cycle")
	}
}

func TestMaxMeanCyclePaperFigure2(t *testing.T) {
	// The paper's Figure 2: 4 FFs in a loop with stage delays 3, 8, 5, 6.
	// Minimum clock period with tuning = cycle mean = 22/4 = 5.5.
	g := NewDigraph(4)
	g.AddEdge(0, 1, 3)
	g.AddEdge(1, 2, 8)
	g.AddEdge(2, 3, 5)
	g.AddEdge(3, 0, 6)
	m, ok := g.MaxMeanCycle()
	if !ok || math.Abs(m-5.5) > 1e-9 {
		t.Fatalf("max mean cycle = %v, want 5.5", m)
	}
}

func TestMaxMeanCycleAgainstEnumeration(t *testing.T) {
	// Random small graphs: enumerate all simple cycles via DFS and compare.
	r := rng.New(31, "karp")
	for trial := 0; trial < 30; trial++ {
		n := 3 + r.Intn(4)
		g := NewDigraph(n)
		var edges [][3]float64
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v && r.Float64() < 0.45 {
					w := math.Round(r.Float64()*20) / 2
					g.AddEdge(u, v, w)
					edges = append(edges, [3]float64{float64(u), float64(v), w})
				}
			}
		}
		want := math.Inf(-1)
		// DFS over simple cycles.
		var path []int
		inPath := make([]bool, n)
		var sumW float64
		var dfs func(start, u int)
		dfs = func(start, u int) {
			for _, e := range edges {
				if int(e[0]) != u {
					continue
				}
				v := int(e[1])
				if v == start && len(path) > 0 {
					mean := (sumW + e[2]) / float64(len(path)+1)
					if mean > want {
						want = mean
					}
					continue
				}
				if v < start || inPath[v] {
					continue // canonical: only cycles whose min node is start
				}
				inPath[v] = true
				path = append(path, v)
				sumW += e[2]
				dfs(start, v)
				sumW -= e[2]
				path = path[:len(path)-1]
				inPath[v] = false
			}
		}
		for s := 0; s < n; s++ {
			path = path[:0]
			sumW = 0
			dfs(s, s)
		}
		got, ok := g.MaxMeanCycle()
		if math.IsInf(want, -1) {
			if ok {
				t.Fatalf("trial %d: enumeration found no cycle but Karp returned %v", trial, got)
			}
			continue
		}
		if !ok || math.Abs(got-want) > 1e-6 {
			t.Fatalf("trial %d: Karp %v vs enumeration %v", trial, got, want)
		}
	}
}

func TestSolveDifferenceFeasible(t *testing.T) {
	// x0 - x1 <= 3, x1 - x2 <= -2, x0 - x2 <= 0.
	cons := []DiffConstraint{{0, 1, 3}, {1, 2, -2}, {0, 2, 0}}
	x, ok := SolveDifference(3, cons, 0)
	if !ok {
		t.Fatal("feasible system reported infeasible")
	}
	if x[0] != 0 {
		t.Fatalf("x[ref] = %v, want 0", x[0])
	}
	for _, c := range cons {
		if x[c.A]-x[c.B] > c.C+1e-9 {
			t.Fatalf("constraint violated: x%d-x%d = %v > %v", c.A, c.B, x[c.A]-x[c.B], c.C)
		}
	}
}

func TestSolveDifferenceInfeasible(t *testing.T) {
	// x0 - x1 <= -1 and x1 - x0 <= -1 cannot both hold.
	cons := []DiffConstraint{{0, 1, -1}, {1, 0, -1}}
	if _, ok := SolveDifference(2, cons, 0); ok {
		t.Fatal("infeasible system reported feasible")
	}
}

func TestSolveIntDifference(t *testing.T) {
	cons := []IntDiffConstraint{{0, 1, 3}, {1, 2, -2}, {0, 2, 0}}
	x := []int64{99, -99, 7} // contents on entry are ignored
	if !SolveIntDifferenceInto(x, cons, 0) {
		t.Fatal("feasible system reported infeasible")
	}
	if x[0] != 0 {
		t.Fatalf("x[ref] = %d, want 0", x[0])
	}
	for _, c := range cons {
		if x[c.A]-x[c.B] > c.C {
			t.Fatalf("violated: x%d-x%d > %d", c.A, c.B, c.C)
		}
	}
	bad := []IntDiffConstraint{{0, 1, -1}, {1, 0, 0}}
	if SolveIntDifferenceInto(make([]int64, 2), bad, 0) {
		t.Fatal("infeasible int system reported feasible")
	}
}

func TestSolveDifferenceRandomized(t *testing.T) {
	// Generate feasible systems from a hidden assignment; solver must find
	// some feasible answer.
	r := rng.New(77, "diffcon")
	for trial := 0; trial < 50; trial++ {
		n := 2 + r.Intn(6)
		hidden := make([]float64, n)
		for i := range hidden {
			hidden[i] = math.Round(r.Float64()*20 - 10)
		}
		var cons []DiffConstraint
		for k := 0; k < 3*n; k++ {
			a, b := r.Intn(n), r.Intn(n)
			if a == b {
				continue
			}
			slack := r.Float64() * 3
			cons = append(cons, DiffConstraint{a, b, hidden[a] - hidden[b] + slack})
		}
		x, ok := SolveDifference(n, cons, 0)
		if !ok {
			t.Fatalf("trial %d: feasible-by-construction system rejected", trial)
		}
		for _, c := range cons {
			if x[c.A]-x[c.B] > c.C+1e-9 {
				t.Fatalf("trial %d: constraint violated", trial)
			}
		}
	}
}

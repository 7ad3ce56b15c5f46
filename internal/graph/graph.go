// Package graph provides the directed-graph algorithms behind EffiTest's
// timing machinery: Bellman–Ford (difference-constraint feasibility with
// negative-cycle detection) and Karp's minimum/maximum cycle mean (minimum
// clock period under skew scheduling).
package graph

import (
	"math"
)

// Edge is a weighted directed edge.
type Edge struct {
	From, To int
	W        float64
}

// Digraph is a directed graph over nodes 0..N-1.
type Digraph struct {
	N     int
	edges []Edge
}

// NewDigraph returns an empty graph with n nodes.
func NewDigraph(n int) *Digraph {
	return &Digraph{N: n}
}

// AddEdge appends a directed edge from u to v with weight w.
func (g *Digraph) AddEdge(u, v int, w float64) {
	g.edges = append(g.edges, Edge{u, v, w})
}

// Edges returns the edge list (shared slice; callers must not modify).
func (g *Digraph) Edges() []Edge { return g.edges }

// BellmanFordMulti runs Bellman–Ford with all nodes as sources (distance 0),
// which detects any negative cycle in the graph and yields a feasible
// potential for difference-constraint systems. ok is false on a negative
// cycle.
func (g *Digraph) BellmanFordMulti() (dist []float64, ok bool) {
	dist = make([]float64, g.N) // all zeros
	for iter := 0; iter < g.N; iter++ {
		changed := false
		for _, e := range g.edges {
			if nd := dist[e.From] + e.W; nd < dist[e.To]-1e-12 {
				dist[e.To] = nd
				changed = true
			}
		}
		if !changed {
			return dist, true
		}
	}
	// One more pass: any improvement means a negative cycle.
	for _, e := range g.edges {
		if dist[e.From]+e.W < dist[e.To]-1e-9 {
			return dist, false
		}
	}
	return dist, true
}

// MinMeanCycle returns the minimum cycle mean using Karp's theorem, with
// ok=false if the graph is acyclic.
func (g *Digraph) MinMeanCycle() (float64, bool) {
	n := g.N
	if n == 0 {
		return 0, false
	}
	// D[k][v] = min weight of a walk with exactly k edges ending at v,
	// starting anywhere (multi-source).
	prev := make([]float64, n) // all zeros: D[0]
	cur := make([]float64, n)
	// Keep all D[k] because Karp's formula needs them.
	all := make([][]float64, n+1)
	all[0] = append([]float64(nil), prev...)
	for k := 1; k <= n; k++ {
		for v := range cur {
			cur[v] = math.Inf(1)
		}
		for _, e := range g.edges {
			if math.IsInf(prev[e.From], 1) {
				continue
			}
			if nd := prev[e.From] + e.W; nd < cur[e.To] {
				cur[e.To] = nd
			}
		}
		all[k] = append([]float64(nil), cur...)
		prev, cur = cur, prev
	}
	best := math.Inf(1)
	found := false
	for v := 0; v < n; v++ {
		dn := all[n][v]
		if math.IsInf(dn, 1) {
			continue
		}
		worst := math.Inf(-1)
		for k := 0; k < n; k++ {
			dk := all[k][v]
			if math.IsInf(dk, 1) {
				continue
			}
			if r := (dn - dk) / float64(n-k); r > worst {
				worst = r
			}
		}
		if !math.IsInf(worst, -1) && worst < best {
			best = worst
			found = true
		}
	}
	return best, found
}

// MaxMeanCycle returns the maximum cycle mean (minimum feasible clock period
// in skew scheduling), with ok=false for acyclic graphs.
func (g *Digraph) MaxMeanCycle() (float64, bool) {
	neg := NewDigraph(g.N)
	for _, e := range g.edges {
		neg.AddEdge(e.From, e.To, -e.W)
	}
	m, ok := neg.MinMeanCycle()
	return -m, ok
}

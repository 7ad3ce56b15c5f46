// Package skew implements clock-skew scheduling for circuits with
// post-silicon tunable buffers: minimum-period computation (Karp's cycle
// mean + bisection cross-check) and feasibility/assignment of buffer values
// under setup, hold, range and discreteness constraints.
//
// This is the machinery behind the paper's Figure 2 ("post-silicon clock
// tuning reduces the minimum clock period from 8 to 5.5") and behind both
// the ideal-yield evaluation and the scalable buffer-configuration solver
// (the specialized equivalent of Eqs. 15–18).
package skew

import (
	"math"

	"effitest/internal/graph"
)

// Timing describes one sequential timing arc between flip-flops: the
// combinational stage from FF From to FF To. Setup slack at period T
// requires  x_From - x_To <= T - Setup; hold requires x_From - x_To >= Hold
// (Setup = d̄ij + s_j and Hold = h_j - d_ij in the paper's notation; both are
// pre-folded by the caller).
type Timing struct {
	From, To    int
	Setup, Hold float64
}

// Buffers describes the tunable-buffer configuration space for a circuit
// with n flip-flops. Buffered[i] reports whether FF i carries a tuning
// buffer; unbuffered FFs are fixed at x=0 (the reference clock). Lo and Hi
// give the configurable range of each buffered FF; Steps > 0 restricts x to
// the lattice Lo + k*(Hi-Lo)/Steps, k = 0..Steps.
type Buffers struct {
	N        int
	Buffered []bool
	Lo, Hi   []float64
	Steps    int
}

// Uniform builds a Buffers value where each FF in buffered carries a buffer
// with range [lo, hi] and the given step count.
func Uniform(n int, buffered []int, lo, hi float64, steps int) Buffers {
	b := Buffers{
		N:        n,
		Buffered: make([]bool, n),
		Lo:       make([]float64, n),
		Hi:       make([]float64, n),
		Steps:    steps,
	}
	for _, i := range buffered {
		b.Buffered[i] = true
		b.Lo[i] = lo
		b.Hi[i] = hi
	}
	return b
}

// StepSize returns the lattice step of buffer i (0 when continuous).
func (b *Buffers) StepSize(i int) float64 {
	if b.Steps <= 0 {
		return 0
	}
	return (b.Hi[i] - b.Lo[i]) / float64(b.Steps)
}

// Quantize snaps value x to buffer i's lattice, rounding toward the nearest
// step and clamping to the range.
func (b *Buffers) Quantize(i int, x float64) float64 {
	if x < b.Lo[i] {
		x = b.Lo[i]
	}
	if x > b.Hi[i] {
		x = b.Hi[i]
	}
	s := b.StepSize(i)
	if s == 0 {
		return x
	}
	k := math.Round((x - b.Lo[i]) / s)
	if k < 0 {
		k = 0
	}
	if k > float64(b.Steps) {
		k = float64(b.Steps)
	}
	return b.Lo[i] + float64(k*s)
}

// MinPeriodUnconstrained returns the minimum clock period achievable with
// unlimited skew: the maximum cycle mean of the setup delays. ok=false means
// the timing graph is acyclic (any period bounded below by 0 works for the
// relative constraints).
func MinPeriodUnconstrained(n int, arcs []Timing) (float64, bool) {
	g := graph.NewDigraph(n)
	for _, a := range arcs {
		g.AddEdge(a.From, a.To, a.Setup)
	}
	return g.MaxMeanCycle()
}

// Feasible reports whether buffer values exist meeting setup (at period T)
// and hold constraints within the buffer ranges; when found it returns a
// concrete assignment (continuous; quantization is the caller's job — use
// FeasibleDiscrete for exact lattice feasibility). The assignment has x=0 at
// every unbuffered FF.
func Feasible(T float64, arcs []Timing, b Buffers) ([]float64, bool) {
	// Node mapping: all unbuffered FFs collapse into reference node 0;
	// buffered FF i becomes node id[i] >= 1.
	id := make([]int, b.N)
	next := 1
	for i := 0; i < b.N; i++ {
		if b.Buffered[i] {
			id[i] = next
			next++
		}
	}
	cons := make([]graph.DiffConstraint, 0, 2*len(arcs)+2*next)
	node := func(i int) int {
		if b.Buffered[i] {
			return id[i]
		}
		return 0
	}
	for _, a := range arcs {
		u, v := node(a.From), node(a.To)
		// Setup: x_u - x_v <= T - Setup.
		cons = append(cons, graph.DiffConstraint{A: u, B: v, C: T - a.Setup})
		// Hold: x_u - x_v >= Hold  <=>  x_v - x_u <= -Hold.
		cons = append(cons, graph.DiffConstraint{A: v, B: u, C: -a.Hold})
	}
	for i := 0; i < b.N; i++ {
		if !b.Buffered[i] {
			continue
		}
		cons = append(cons,
			graph.DiffConstraint{A: id[i], B: 0, C: b.Hi[i]},  // x_i <= hi
			graph.DiffConstraint{A: 0, B: id[i], C: -b.Lo[i]}, // x_i >= lo
		)
	}
	sol, ok := graph.SolveDifference(next, cons, 0)
	if !ok {
		return nil, false
	}
	x := make([]float64, b.N)
	for i := 0; i < b.N; i++ {
		if b.Buffered[i] {
			x[i] = sol[id[i]]
		}
	}
	return x, true
}

// FeasibleDiscrete is Feasible restricted to the buffer lattices. It is
// exact: constraints are rounded onto the integer step lattice and solved as
// an integral difference-constraint system, so a reported assignment always
// satisfies the original constraints and infeasible means no lattice point
// works.
//
// All buffers must share the same step size (as in the paper: all ranges are
// T/8 wide with 20 steps); FFs without buffers are fixed at 0.
func FeasibleDiscrete(T float64, arcs []Timing, b Buffers) ([]float64, bool) {
	if b.Steps <= 0 {
		return Feasible(T, arcs, b)
	}
	step := 0.0
	for i := 0; i < b.N; i++ {
		if b.Buffered[i] {
			s := b.StepSize(i)
			if step == 0 {
				step = s
			} else if math.Abs(step-s) > 1e-12 {
				// Mixed steps: fall back to a common fine lattice.
				step = math.Min(step, s)
			}
		}
	}
	if step == 0 {
		// No buffers at all: feasible iff all constraints hold at x = 0.
		for _, a := range arcs {
			if 0 > T-a.Setup+1e-12 || 0 < a.Hold-1e-12 {
				return nil, false
			}
		}
		return make([]float64, b.N), true
	}

	id := make([]int, b.N)
	next := 1
	for i := 0; i < b.N; i++ {
		if b.Buffered[i] {
			id[i] = next
			next++
		}
	}
	node := func(i int) int {
		if b.Buffered[i] {
			return id[i]
		}
		return 0
	}
	// x_i = lo_i + step * n_i with n_i integer. A difference constraint
	// x_u - x_v <= c becomes n_u - n_v <= floor((c - lo_u + lo_v)/step).
	nodeLo := make([]float64, next)
	for f := 0; f < b.N; f++ {
		if b.Buffered[f] {
			nodeLo[id[f]] = b.Lo[f]
		}
	}
	var cons []graph.IntDiffConstraint
	add := func(a, bnode int, c float64) {
		bound := math.Floor((c-nodeLo[a]+nodeLo[bnode])/step + 1e-9)
		cons = append(cons, graph.IntDiffConstraint{A: a, B: bnode, C: int64(bound)})
	}
	for _, a := range arcs {
		u, v := node(a.From), node(a.To)
		add(u, v, T-a.Setup)
		add(v, u, -a.Hold)
	}
	maxSteps := int64(b.Steps)
	for i := 0; i < b.N; i++ {
		if !b.Buffered[i] {
			continue
		}
		cons = append(cons,
			graph.IntDiffConstraint{A: id[i], B: 0, C: maxSteps}, // n_i <= Steps
			graph.IntDiffConstraint{A: 0, B: id[i], C: 0},        // n_i >= 0
		)
	}
	sol, ok := graph.SolveIntDifference(next, cons, 0)
	if !ok {
		return nil, false
	}
	x := make([]float64, b.N)
	for i := 0; i < b.N; i++ {
		if b.Buffered[i] {
			x[i] = b.Lo[i] + float64(step*float64(sol[id[i]]))
		}
	}
	return x, true
}

// MinPeriodBoxed returns the smallest period (within tol) for which a
// discrete-feasible buffer assignment exists, searching between loT and hiT
// by bisection. ok=false if even hiT is infeasible.
func MinPeriodBoxed(arcs []Timing, b Buffers, loT, hiT, tol float64) (float64, []float64, bool) {
	x, ok := FeasibleDiscrete(hiT, arcs, b)
	if !ok {
		return 0, nil, false
	}
	bestX := x
	for hiT-loT > tol {
		mid := (loT + hiT) / 2
		if xm, ok := FeasibleDiscrete(mid, arcs, b); ok {
			hiT = mid
			bestX = xm
		} else {
			loT = mid
		}
	}
	return hiT, bestX, true
}

// Verify checks an assignment against setup (period T) and hold constraints;
// it returns true when every arc meets both within tol.
func Verify(T float64, arcs []Timing, x []float64, tol float64) bool {
	for _, a := range arcs {
		d := x[a.From] - x[a.To]
		if d > T-a.Setup+tol {
			return false
		}
		if d < a.Hold-tol {
			return false
		}
	}
	return true
}

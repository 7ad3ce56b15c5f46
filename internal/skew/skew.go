// Package skew implements clock-skew scheduling for circuits with
// post-silicon tunable buffers: minimum-period computation (Karp's cycle
// mean) and feasibility/assignment of buffer values under setup, hold,
// range and discreteness constraints.
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
		setup, hold := T-a.Setup, -a.Hold
		if !(setup > math.Inf(-1) && hold > math.Inf(-1)) {
			return nil, false // a row bounded by −Inf or NaN never holds
		}
		// Setup: x_u - x_v <= T - Setup. A +Inf row never relaxes a
		// potential, so it constrains nothing.
		cons = append(cons, graph.DiffConstraint{A: u, B: v, C: setup})
		// Hold: x_u - x_v >= Hold  <=>  x_v - x_u <= -Hold.
		cons = append(cons, graph.DiffConstraint{A: v, B: u, C: hold})
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
// T/8 wide with 20 steps); FFs without buffers are fixed at 0. It is one
// Lattice solve; callers that solve many periods or arc sets over the same
// buffers build the Lattice once instead.
func FeasibleDiscrete(T float64, arcs []Timing, b Buffers) ([]float64, bool) {
	l := NewLattice(b)
	var scr LatticeScratch
	if !l.Solve(T, arcs, &scr) {
		return nil, false
	}
	x := make([]float64, b.N)
	l.Assignment(&scr, x)
	return x, true
}

// Lattice is the discrete feasibility solver of one buffer configuration
// space. Everything that depends only on the buffers is built once by
// NewLattice: the node of every FF (unbuffered FFs collapse into reference
// node 0, buffered FF i becomes a node ≥ 1 in FF order), each node's Lo,
// the common lattice step and the range constraints 0 ≤ n_i ≤ Steps. A
// Solve then only rounds the arcs onto the lattice and runs Bellman–Ford,
// in a caller-owned LatticeScratch, so repeated solves allocate nothing
// once the scratch is warm. A Lattice is read-only after NewLattice and
// safe for concurrent use with distinct scratches.
//
// Buffers with Steps ≤ 0 are continuous: Solve is then Feasible (which
// allocates), so every period search goes through one entry point.
type Lattice struct {
	b      Buffers                   // the configuration space (continuous solves, N)
	node   []int                     // FF → node; 0 for every unbuffered FF
	ffs    []int                     // node k ≥ 1 → its FF (ffs[0] unused)
	lo     []float64                 // node → Lo of its FF (node 0: 0)
	step   float64                   // common lattice step; 0 when no FF is buffered
	ranges []graph.IntDiffConstraint // n_i ≤ Steps and n_i ≥ 0 per buffered node
}

// LatticeScratch is the working memory of Lattice.Solve, owned by one
// caller at a time. It keeps the solution of the latest feasible Solve until
// the next feasible one replaces it, which is exactly what a bisection over
// the period (or over ξ) needs: read the last feasible point at the end.
type LatticeScratch struct {
	cons []graph.IntDiffConstraint
	dist []int64   // potentials of the Solve in progress
	sol  []int64   // potentials of the latest feasible Solve
	cont []float64 // continuous buffers: the latest feasible assignment
}

// NewLattice builds the solver for buffers b.
func NewLattice(b Buffers) *Lattice {
	l := &Lattice{b: b}
	if b.Steps <= 0 {
		return l
	}
	for i := 0; i < b.N; i++ {
		if b.Buffered[i] {
			s := b.StepSize(i)
			if l.step == 0 {
				l.step = s
			} else if math.Abs(l.step-s) > 1e-12 {
				// Mixed steps: fall back to a common fine lattice.
				l.step = math.Min(l.step, s)
			}
		}
	}
	if l.step == 0 {
		return l
	}
	l.node = make([]int, b.N)
	l.ffs = []int{-1}
	l.lo = []float64{0}
	maxSteps := int64(b.Steps)
	for i := 0; i < b.N; i++ {
		if !b.Buffered[i] {
			continue
		}
		k := len(l.ffs)
		l.node[i] = k
		l.ffs = append(l.ffs, i)
		l.lo = append(l.lo, b.Lo[i])
		l.ranges = append(l.ranges,
			graph.IntDiffConstraint{A: k, B: 0, C: maxSteps}, // n_i <= Steps
			graph.IntDiffConstraint{A: 0, B: k, C: 0},        // n_i >= 0
		)
	}
	return l
}

// constraint rounds x_a - x_b <= c onto the lattice: with x_i = lo_i +
// step * n_i and n_i integer it becomes n_a - n_b <= floor((c - lo_a +
// lo_b)/step). Every node lies in [0, Steps], so the bound is clamped to
// [−Steps−1, Steps] without changing any answer: a bound of Steps or more
// is implied by the ranges (c = +Inf among them), and one below −Steps can
// never hold (c = −Inf among them, and a NaN). The clamped bound converts
// to int64 exactly on every platform.
func (l *Lattice) constraint(a, b int, c float64) graph.IntDiffConstraint {
	bound := math.Floor((c-l.lo[a]+l.lo[b])/l.step + 1e-9)
	steps := float64(l.b.Steps)
	if !(bound >= -steps) {
		bound = -steps - 1
	}
	return graph.IntDiffConstraint{A: a, B: b, C: int64(min(bound, steps))}
}

// Solve reports whether a lattice assignment meets every arc's setup (at
// period T) and hold constraint within the buffer ranges. On success the
// assignment replaces the scratch's kept solution (read it with
// Assignment); on failure the kept solution is left as it was.
func (l *Lattice) Solve(T float64, arcs []Timing, scr *LatticeScratch) bool {
	if l.b.Steps <= 0 {
		x, ok := Feasible(T, arcs, l.b)
		if ok {
			scr.cont = x
		}
		return ok
	}
	if l.step == 0 {
		// No buffers at all: feasible iff all constraints hold at x = 0
		// (a NaN holds nowhere).
		for _, a := range arcs {
			if !(T-a.Setup+1e-12 >= 0) || !(a.Hold-1e-12 <= 0) {
				return false
			}
		}
		return true
	}
	cons := scr.cons[:0]
	for _, a := range arcs {
		u, v := l.node[a.From], l.node[a.To]
		cons = append(cons,
			l.constraint(u, v, T-a.Setup), // setup: x_u - x_v <= T - Setup
			l.constraint(v, u, -a.Hold),   // hold: x_v - x_u <= -Hold
		)
	}
	cons = append(cons, l.ranges...)
	scr.cons = cons
	if cap(scr.dist) < len(l.lo) {
		scr.dist = make([]int64, len(l.lo))
	}
	dist := scr.dist[:len(l.lo)]
	if !graph.SolveIntDifferenceInto(dist, cons, 0) {
		return false
	}
	scr.dist, scr.sol = scr.sol, dist
	return true
}

// Assignment writes the kept solution into x (one entry per FF; unbuffered
// FFs get 0). It must follow a feasible Solve on scr.
func (l *Lattice) Assignment(scr *LatticeScratch, x []float64) {
	if l.b.Steps <= 0 {
		copy(x, scr.cont)
		return
	}
	clear(x)
	for k := 1; k < len(l.ffs); k++ {
		x[l.ffs[k]] = l.lo[k] + float64(l.step*float64(scr.sol[k]))
	}
}

// Verify checks an assignment against setup (period T) and hold constraints;
// it returns true when every arc meets both within tol (a NaN meets neither).
func Verify(T float64, arcs []Timing, x []float64, tol float64) bool {
	for _, a := range arcs {
		d := x[a.From] - x[a.To]
		if !(d <= T-a.Setup+tol) {
			return false
		}
		if !(d >= a.Hold-tol) {
			return false
		}
	}
	return true
}

package skew

import (
	"math"
	"math/rand"
	"testing"

	"effitest/internal/graph"
	"effitest/internal/rng"
)

// feasibleDiscreteDense is FeasibleDiscrete as it stood before Lattice: the
// node map, node Lo, common step and every constraint rebuilt on each call,
// and Bellman–Ford over freshly allocated potentials. It is the oracle the
// Lattice is pinned against bit for bit.
func feasibleDiscreteDense(T float64, arcs []Timing, b Buffers) ([]float64, bool) {
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
				step = math.Min(step, s)
			}
		}
	}
	if step == 0 {
		for _, a := range arcs {
			if !(T-a.Setup+1e-12 >= 0) || !(a.Hold-1e-12 <= 0) {
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
	nodeLo := make([]float64, next)
	for f := 0; f < b.N; f++ {
		if b.Buffered[f] {
			nodeLo[id[f]] = b.Lo[f]
		}
	}
	var cons []graph.IntDiffConstraint
	// add appends the lattice row of x_a - x_b <= c, or reports false when
	// the row can never hold. A row with c = +Inf constrains nothing and is
	// left out; one with c = −Inf or NaN never holds. Without this rule
	// int64 converts an infinite bound the platform's way (MinInt64 on
	// amd64).
	add := func(a, bnode int, c float64) bool {
		if math.IsInf(c, 1) {
			return true
		}
		if math.IsInf(c, -1) || math.IsNaN(c) {
			return false
		}
		bound := math.Floor((c-nodeLo[a]+nodeLo[bnode])/step + 1e-9)
		cons = append(cons, graph.IntDiffConstraint{A: a, B: bnode, C: int64(bound)})
		return true
	}
	for _, a := range arcs {
		u, v := node(a.From), node(a.To)
		if !add(u, v, T-a.Setup) || !add(v, u, -a.Hold) {
			return nil, false
		}
	}
	maxSteps := int64(b.Steps)
	for i := 0; i < b.N; i++ {
		if !b.Buffered[i] {
			continue
		}
		cons = append(cons,
			graph.IntDiffConstraint{A: id[i], B: 0, C: maxSteps},
			graph.IntDiffConstraint{A: 0, B: id[i], C: 0},
		)
	}
	sol, ok := solveIntDense(next, cons, 0)
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

// solveIntDense is graph.SolveIntDifferenceInto over freshly allocated
// potentials, as the solver stood before it took caller-owned ones.
func solveIntDense(n int, cons []graph.IntDiffConstraint, ref int) ([]int64, bool) {
	const inf = math.MaxInt64 / 4
	dist := make([]int64, n)
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
			for _, c := range cons {
				if dist[c.B]+c.C < dist[c.A] {
					return nil, false
				}
			}
		}
	}
	x := make([]int64, n)
	shift := dist[ref]
	for i := range x {
		x[i] = dist[i] - shift
	}
	return x, true
}

// Lattice instance shapes the differential tests draw.
const (
	latticeRandom     = iota // random arcs on a uniform lattice
	latticeMixedSteps        // buffers with different ranges, so different steps
	latticeParallel          // several arcs between the same FF pair
	latticeSelfLoop          // an arc from a buffered FF to itself
	latticeNegCycle          // a setup ring too tight for any period tried
	latticeHoldOnly          // periods loose enough for setup; hold beyond reach
	latticeOnGrid            // periods, setups and holds on the step grid: rounded bounds land on integers
	latticeNonFinite         // ±Inf and NaN setups, holds and periods
	latticeKinds
)

// latticeCase draws one instance of the given shape: buffers, arcs and a
// sequence of periods to solve on one scratch.
func latticeCase(r *rand.Rand, kind int) (Buffers, []Timing, []float64) {
	n := 2 + r.Intn(10)
	steps := 1 + r.Intn(40)
	if kind == latticeRandom && r.Intn(10) == 0 || kind == latticeNonFinite && r.Intn(4) == 0 {
		steps = 0 // continuous buffers: Solve is Feasible
	}
	b := Buffers{N: n, Buffered: make([]bool, n), Lo: make([]float64, n), Hi: make([]float64, n), Steps: steps}
	span := 0.5 + r.Float64()
	for i := 0; i < n; i++ {
		if r.Intn(3) == 0 {
			continue
		}
		b.Buffered[i] = true
		w := span
		if kind == latticeMixedSteps {
			w = []float64{0.5, 0.75, 1, 1.6}[r.Intn(4)] * span
		}
		b.Lo[i] = -w * r.Float64()
		b.Hi[i] = b.Lo[i] + w
	}
	hold := func() float64 {
		if r.Intn(6) == 0 {
			return math.Inf(-1) // an unconstrained pair, as HoldBounds.Lambda reports
		}
		return -2 + 2.2*r.Float64()
	}
	var arcs []Timing
	for i := r.Intn(3 * n); i >= 0; i-- {
		from, to := r.Intn(n), r.Intn(n)
		arcs = append(arcs, Timing{From: from, To: to, Setup: 1 + 5*r.Float64(), Hold: hold()})
	}
	switch kind {
	case latticeParallel:
		for i := 0; i < 4; i++ {
			a := arcs[r.Intn(len(arcs))]
			a.Setup += r.Float64() - 0.5
			a.Hold = hold()
			arcs = append(arcs, a)
		}
	case latticeSelfLoop:
		for f := 0; f < n; f++ {
			if b.Buffered[f] {
				arcs = append(arcs, Timing{From: f, To: f, Setup: 1 + 5*r.Float64(), Hold: hold()})
				break
			}
		}
	case latticeNegCycle:
		for i := 0; i < n; i++ {
			arcs = append(arcs, Timing{From: i, To: (i + 1) % n, Setup: 20 + r.Float64(), Hold: -50})
		}
	case latticeHoldOnly:
		for i := range arcs {
			arcs[i].Setup = -100
			if r.Intn(2) == 0 {
				arcs[i].Hold = 1 + 2*span*r.Float64()
			}
		}
	}
	periods := make([]float64, 1+r.Intn(6))
	for i := range periods {
		periods[i] = 8 * r.Float64()
	}
	if kind == latticeNonFinite {
		// −Inf dominates the draw, so that most instances keep some
		// feasible period: a −Inf setup or hold constrains nothing, while a
		// +Inf one, a NaN or a −Inf period can never be met.
		nonFinite := []float64{math.Inf(-1), math.Inf(-1), math.Inf(-1), math.Inf(1), math.NaN()}
		pick := func() float64 { return nonFinite[r.Intn(len(nonFinite))] }
		for i := range arcs {
			if r.Intn(4) == 0 {
				arcs[i].Setup = pick()
			}
			if r.Intn(8) == 0 {
				arcs[i].Hold = pick()
			}
		}
		if r.Intn(3) == 0 {
			periods[r.Intn(len(periods))] = []float64{math.Inf(1), math.Inf(-1), math.NaN()}[r.Intn(3)]
		}
	}
	if kind == latticeOnGrid {
		// One range for every buffer, centred on 0 with an even step count,
		// so every Lo is a whole number of steps too: each constraint's
		// exact bound is an integer, and only the solver's rounding
		// tolerance keeps a computed bound from flooring one step short.
		b.Steps = 2 * (1 + r.Intn(20))
		step := span / float64(b.Steps)
		for f := range b.Buffered {
			if b.Buffered[f] {
				b.Lo[f], b.Hi[f] = -span/2, span/2
			}
		}
		grid := func(lo, hi int) float64 { return float64(lo+r.Intn(hi-lo)) * step }
		for i := range arcs {
			arcs[i].Setup = grid(b.Steps, 4*b.Steps)
			if !math.IsInf(arcs[i].Hold, -1) {
				arcs[i].Hold = grid(-b.Steps, b.Steps/2)
			}
		}
		for i := range periods {
			periods[i] = grid(2*b.Steps, 5*b.Steps)
		}
	}
	return b, arcs, periods
}

// checkLatticeCase solves every period of one instance on a single
// Lattice and scratch and compares the ok flag and the bits of every
// assignment with the dense oracle; after an infeasible period the kept
// solution must still be the last feasible one.
func checkLatticeCase(t *testing.T, b Buffers, arcs []Timing, periods []float64) {
	t.Helper()
	l := NewLattice(b)
	var scr LatticeScratch
	var kept []float64
	got := make([]float64, b.N)
	for _, T := range periods {
		want, wantOK := feasibleDiscreteDense(T, arcs, b)
		if ok := l.Solve(T, arcs, &scr); ok != wantOK {
			t.Fatalf("T=%v: Solve ok=%v, dense %v (buffers %+v, arcs %+v)", T, ok, wantOK, b, arcs)
		}
		if wantOK {
			kept = want
		}
		if kept == nil {
			continue
		}
		l.Assignment(&scr, got)
		for f := range got {
			if math.Float64bits(got[f]) != math.Float64bits(kept[f]) {
				t.Fatalf("T=%v: x[%d] = %v, dense %v (buffers %+v, arcs %+v)", T, f, got[f], kept[f], b, arcs)
			}
		}
	}
}

// FuzzLatticeMatchesDense pins Lattice.Solve and Assignment to the dense
// pre-Lattice solver on random instances of every shape.
func FuzzLatticeMatchesDense(f *testing.F) {
	for kind := uint8(0); kind < latticeKinds; kind++ {
		for seed := int64(1); seed <= 20; seed++ {
			f.Add(seed, kind)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, kind uint8) {
		k := int(kind % latticeKinds)
		b, arcs, periods := latticeCase(rng.New(seed, "lattice"), k)
		checkLatticeCase(t, b, arcs, periods)
	})
}

// TestLatticeMatchesDense runs a larger deterministic sample of the fuzz
// instances and checks that every shape produced both outcomes somewhere.
func TestLatticeMatchesDense(t *testing.T) {
	r := rng.New(29, "lattice-sample")
	var feasible, infeasible [latticeKinds]int
	for i := 0; i < 3000; i++ {
		kind := i % latticeKinds
		b, arcs, periods := latticeCase(r, kind)
		checkLatticeCase(t, b, arcs, periods)
		for _, T := range periods {
			if _, ok := feasibleDiscreteDense(T, arcs, b); ok {
				feasible[kind]++
			} else {
				infeasible[kind]++
			}
		}
	}
	for kind := 0; kind < latticeKinds; kind++ {
		if infeasible[kind] == 0 {
			t.Errorf("shape %d never infeasible", kind)
		}
		if feasible[kind] == 0 && kind != latticeNegCycle && kind != latticeHoldOnly {
			t.Errorf("shape %d never feasible", kind)
		}
	}
}

// TestLatticeSolveZeroAlloc holds a warm Lattice solve plus decode at zero
// heap allocations.
func TestLatticeSolveZeroAlloc(t *testing.T) {
	arcs, b := benchInstance(100)
	l := NewLattice(b)
	var scr LatticeScratch
	x := make([]float64, b.N)
	solve := func() {
		if l.Solve(7, arcs, &scr) {
			l.Assignment(&scr, x)
		}
	}
	if !l.Solve(7, arcs, &scr) {
		t.Fatal("bench instance infeasible at T=7")
	}
	solve() // both potential buffers now exist
	if allocs := testing.AllocsPerRun(50, solve); allocs != 0 {
		t.Fatalf("warm Lattice solve makes %v allocations, want 0", allocs)
	}
}

// latticeHasPoint reports whether some point of l's lattice meets every arc
// at period T by more than the solver's rounding tolerance, trying each of
// the (Steps+1)^nodes points in turn.
func latticeHasPoint(l *Lattice, T float64, arcs []Timing) bool {
	x := make([]float64, l.b.N)
	n := make([]int, max(len(l.ffs)-1, 0))
	for {
		for k := range n {
			x[l.ffs[k+1]] = l.lo[k+1] + float64(l.step*float64(n[k]))
		}
		if Verify(T, arcs, x, -1e-9) {
			return true
		}
		k := 0
		for ; k < len(n); k++ {
			if n[k] < l.b.Steps {
				n[k]++
				break
			}
			n[k] = 0
		}
		if k == len(n) {
			return false
		}
	}
}

// TestLatticeSolveIsTotal checks Solve's answers against the constraints
// themselves, on every instance shape, infinite and NaN bounds included:
// every assignment it reports passes Verify, and on lattices small enough
// to enumerate every "infeasible" is confirmed by trying each point.
func TestLatticeSolveIsTotal(t *testing.T) {
	r := rng.New(31, "lattice-total")
	var feasible, confirmed [latticeKinds]int
	for i := 0; i < 4000; i++ {
		kind := i % latticeKinds
		b, arcs, periods := latticeCase(r, kind)
		l := NewLattice(b)
		var scr LatticeScratch
		x := make([]float64, b.N)
		for _, T := range periods {
			if l.Solve(T, arcs, &scr) {
				feasible[kind]++
				l.Assignment(&scr, x)
				if !Verify(T, arcs, x, 1e-9) {
					t.Fatalf("T=%v: Solve's assignment %v fails Verify (buffers %+v, arcs %+v)", T, x, b, arcs)
				}
				continue
			}
			points := math.Pow(float64(b.Steps+1), float64(len(l.ffs)-1))
			if b.Steps <= 0 || points > 4096 {
				continue
			}
			if latticeHasPoint(l, T, arcs) {
				t.Fatalf("T=%v: Solve says infeasible, but a lattice point meets every arc (buffers %+v, arcs %+v)", T, b, arcs)
			}
			confirmed[kind]++
		}
	}
	for kind := 0; kind < latticeKinds; kind++ {
		if confirmed[kind] == 0 {
			t.Errorf("shape %d: no infeasible answer small enough to enumerate", kind)
		}
		if feasible[kind] == 0 && kind != latticeNegCycle && kind != latticeHoldOnly {
			t.Errorf("shape %d never feasible", kind)
		}
	}
}

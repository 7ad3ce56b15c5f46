package core

import (
	"fmt"
	"math"

	"effitest/internal/circuit"
	"effitest/internal/lp"
	"effitest/internal/mip"
	"effitest/internal/skew"
)

// ConfigureResult is the outcome of buffer-value configuration (Eqs. 15–18).
type ConfigureResult struct {
	X        []float64 // per-FF buffer values (lattice points; unbuffered 0)
	Xi       float64   // achieved objective ξ: max shortfall from upper bounds
	Feasible bool
}

// Configure determines final buffer values from the per-path delay windows
// in b (measured or predicted) so that the chip meets period Td while the
// assumed delays stay as close to their upper bounds as possible (minimize
// ξ of Eqs. 15–17), subject to buffer ranges (18) and hold bounds (21).
// It builds the circuit's configuration kernel for the one call; a Plan
// configures its chips through the kernel it baked.
func Configure(c *circuit.Circuit, b *Bounds, hb *HoldBounds, Td float64, cfg Config) (ConfigureResult, error) {
	switch cfg.ConfigMode {
	case ConfigureScalable:
		return newConfigKernel(c).configure(b, hb, Td, &configScratch{}), nil
	case ConfigureMILP:
		return configureMILP(c, b, hb, Td)
	default:
		return ConfigureResult{}, fmt.Errorf("core: unknown configure mode %d", cfg.ConfigMode)
	}
}

// configure is Configure through the plan's baked kernel and a worker's
// scratch: in scalable mode only the returned X allocates.
func (pl *Plan) configure(b *Bounds, Td float64, scr *configScratch) (ConfigureResult, error) {
	if pl.Cfg.ConfigMode != ConfigureScalable {
		return Configure(pl.Circuit, b, pl.Hold, Td, pl.Cfg)
	}
	return pl.conf.configure(b, pl.Hold, Td, scr), nil
}

// ffPair is the flip-flop pair one or more paths run between.
type ffPair struct{ from, to int }

// configKernel is the chip-independent state of the scalable configuration
// solver: the FF-pair topology of the paths and the lattice solver over the
// circuit's buffers. A Plan bakes it with its prediction kernels; it is
// read-only afterwards. The hold bounds λ are not part of it: they are read
// from the HoldBounds on every call.
type configKernel struct {
	numFF    int
	pairs    []ffPair // distinct (From, To) pairs, in the order of their first path
	pathPair []int32  // path id → index into pairs
	lat      *skew.Lattice
}

func newConfigKernel(c *circuit.Circuit) *configKernel {
	k := &configKernel{numFF: c.NumFF, pathPair: make([]int32, len(c.Paths)), lat: skew.NewLattice(c.Buf)}
	idx := make(map[ffPair]int32, len(c.Paths))
	for i := range c.Paths {
		key := ffPair{c.Paths[i].From, c.Paths[i].To}
		j, ok := idx[key]
		if !ok {
			j = int32(len(k.pairs))
			idx[key] = j
			k.pairs = append(k.pairs, key)
		}
		k.pathPair[i] = j
	}
	return k
}

// configScratch is the per-worker state of one configuration: each pair's
// window maxima and hold bound, the arcs of the current ξ probe and the
// lattice solver's constraints and potentials.
type configScratch struct {
	u, l, lambda []float64
	arcs         []skew.Timing
	lat          skew.LatticeScratch
}

// configure solves the model by bisection on ξ. Parallel paths between the
// same FF pair must all hold, so a pair's bounds are the maxima of its
// paths' windows. For a fixed ξ the constraints reduce to differences on the
// buffer lattice:
//
//	x_i - x_j ≤ Td - max(u_ij - ξ, l_ij)   (from 15–17)
//	x_i - x_j ≥ λ_ij                        (21)
//
// which the lattice solver decides exactly. ξ saturates at max(u-l), so the
// search space is closed; 48 bisection steps give ~1e-14 relative precision.
// The scratch keeps the last feasible solve, so X is decoded once, at the
// end.
func (k *configKernel) configure(b *Bounds, hb *HoldBounds, Td float64, scr *configScratch) ConfigureResult {
	n := len(k.pairs)
	scr.u, scr.l, scr.lambda = resizeF(scr.u, n), resizeF(scr.l, n), resizeF(scr.lambda, n)
	u, l, lambda := scr.u, scr.l, scr.lambda
	for j, pr := range k.pairs {
		u[j], l[j] = math.Inf(-1), math.Inf(-1)
		lambda[j] = hb.Lambda(pr.from, pr.to)
	}
	for i, j := range k.pathPair {
		u[j] = math.Max(u[j], b.Hi[i])
		l[j] = math.Max(l[j], b.Lo[i])
	}
	if cap(scr.arcs) < n {
		scr.arcs = make([]skew.Timing, n)
	}
	arcs := scr.arcs[:n]
	feasibleAt := func(xi float64) bool {
		for j, pr := range k.pairs {
			arcs[j] = skew.Timing{
				From: pr.from, To: pr.to,
				Setup: math.Max(u[j]-xi, l[j]),
				Hold:  lambda[j],
			}
		}
		return k.lat.Solve(Td, arcs, &scr.lat)
	}
	xiMax := 0.0
	for j := range u {
		if w := u[j] - l[j]; w > xiMax {
			xiMax = w
		}
	}
	if !feasibleAt(xiMax) {
		return ConfigureResult{Feasible: false}
	}
	// ξ = 0 may already work (chip comfortably meets Td at the upper
	// bounds).
	xi := 0.0
	if !feasibleAt(0) {
		lo, hi := 0.0, xiMax
		for it := 0; it < 48; it++ {
			mid := (lo + hi) / 2
			if feasibleAt(mid) {
				hi = mid
			} else {
				lo = mid
			}
		}
		xi = hi
	}
	x := make([]float64, k.numFF)
	k.lat.Assignment(&scr.lat, x)
	return ConfigureResult{X: x, Xi: xi, Feasible: true}
}

// configureMILP is the literal MILP of Eqs. (15)–(18) plus (21): variables
// ξ, one assumed delay D'ij per path, and integer lattice steps per buffer.
// Cross-check/ablation use; cost grows with path count.
func configureMILP(c *circuit.Circuit, b *Bounds, hb *HoldBounds, Td float64) (ConfigureResult, error) {
	p := mip.NewProblem()
	xi := p.AddVar("xi", 0, lp.Inf, 1)

	type bufVar struct {
		v    int
		lo   float64
		step float64
	}
	bufOf := map[int]bufVar{}
	xTerm := func(f int, sign float64) (lp.Term, float64, bool) {
		if !c.Buf.Buffered[f] {
			return lp.Term{}, 0, false
		}
		bv, ok := bufOf[f]
		if !ok {
			bv = bufVar{
				v:    p.AddIntVar(fmt.Sprintf("n%d", f), 0, float64(c.Buf.Steps), 0),
				lo:   c.Buf.Lo[f],
				step: c.Buf.StepSize(f),
			}
			bufOf[f] = bv
		}
		return lp.Term{Var: bv.v, Coef: sign * bv.step}, sign * bv.lo, true
	}

	for i := range c.Paths {
		pt := &c.Paths[i]
		d := p.AddVar(fmt.Sprintf("D%d", i), b.Lo[i], b.Hi[i], 0)
		// (16) D' + x_i - x_j ≤ Td.
		terms := []lp.Term{{Var: d, Coef: 1}}
		rhs := Td
		if t, off, ok := xTerm(pt.From, 1); ok {
			terms = append(terms, t)
			rhs -= off
		}
		if t, off, ok := xTerm(pt.To, -1); ok {
			terms = append(terms, t)
			rhs -= off
		}
		p.AddConstraint("setup", terms, lp.LE, rhs)
		// (17) ξ ≥ u - D'.
		p.AddConstraint("xi", []lp.Term{{Var: xi, Coef: 1}, {Var: d, Coef: 1}}, lp.GE, b.Hi[i])
	}

	// (21) hold bounds per pair.
	for pair, lam := range holdPairs(c, hb) {
		var terms []lp.Term
		rhs := lam
		if t, off, ok := xTerm(pair[0], 1); ok {
			terms = append(terms, t)
			rhs -= off
		}
		if t, off, ok := xTerm(pair[1], -1); ok {
			terms = append(terms, t)
			rhs -= off
		}
		if len(terms) > 0 {
			p.AddConstraint("hold", terms, lp.GE, rhs)
		} else if rhs > 0 {
			return ConfigureResult{Feasible: false}, nil
		}
	}

	sol, err := p.Solve()
	if err != nil {
		return ConfigureResult{}, err
	}
	if sol.Status == lp.StatusInfeasible {
		return ConfigureResult{Feasible: false}, nil
	}
	if sol.Status != lp.StatusOptimal {
		return ConfigureResult{}, fmt.Errorf("core: configuration MILP %v", sol.Status)
	}
	x := make([]float64, c.NumFF)
	for f, bv := range bufOf {
		x[f] = bv.lo + bv.step*math.Round(sol.X[bv.v])
	}
	return ConfigureResult{X: x, Xi: sol.X[xi], Feasible: true}, nil
}

func holdPairs(c *circuit.Circuit, hb *HoldBounds) map[[2]int]float64 {
	out := map[[2]int]float64{}
	for i := range c.Paths {
		key := [2]int{c.Paths[i].From, c.Paths[i].To}
		if _, ok := out[key]; ok {
			continue
		}
		if lam := hb.Lambda(key[0], key[1]); !math.IsInf(lam, -1) {
			out[key] = lam
		}
	}
	return out
}

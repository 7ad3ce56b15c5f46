package core

import (
	"math"

	"effitest/internal/circuit"
	"effitest/internal/skew"
)

// ConfigureResult is the outcome of buffer-value configuration (Eqs. 15–18).
type ConfigureResult struct {
	X        []float64 // per-FF buffer values (lattice points; unbuffered 0)
	Xi       float64   // achieved objective ξ: max shortfall from upper bounds
	Feasible bool
}

// ffPair is the flip-flop pair one or more paths run between.
type ffPair struct{ from, to int }

// configKernel is the chip-independent state of the configuration
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

// configure determines a chip's final buffer values from its per-path
// delay windows b (measured or predicted) so that the chip meets period Td
// while the assumed delays stay as close to their upper bounds as possible
// (minimize ξ of Eqs. 15–17), subject to buffer ranges (18) and the hold
// bounds hb (21). Only the returned X allocates.
//
// It solves the model by bisection on ξ. Parallel paths between the same FF
// pair must all hold, so a pair's bounds are the maxima of its paths'
// windows. For a fixed ξ the constraints reduce to differences on the
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

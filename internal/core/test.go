package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"effitest/internal/circuit"
	"effitest/internal/tester"
)

// Bounds tracks the evolving [lower, upper] delay window of every path
// (indexed by path id). Initialized to μ±3σ per the paper; frequency steps
// tighten one side per iteration.
type Bounds struct {
	Lo, Hi []float64
}

// InitBounds builds the μ±3σ starting windows for all paths of a circuit.
func InitBounds(c *circuit.Circuit) *Bounds {
	n := c.NumPaths()
	b := &Bounds{Lo: make([]float64, n), Hi: make([]float64, n)}
	for i := 0; i < n; i++ {
		mu := c.Paths[i].Max.Mean
		sd := c.Paths[i].Max.Sigma()
		b.Lo[i] = mu - 3*sd
		b.Hi[i] = mu + 3*sd
		if b.Lo[i] < 0 {
			b.Lo[i] = 0
		}
	}
	return b
}

// clone returns a copy of b whose two windows share one allocation.
func (b *Bounds) clone() *Bounds {
	n := len(b.Lo)
	buf := make([]float64, n+len(b.Hi))
	copy(buf, b.Lo)
	copy(buf[n:], b.Hi)
	return &Bounds{Lo: buf[:n:n], Hi: buf[n:]}
}

// Width returns the current window width of path p.
func (b *Bounds) Width(p int) float64 { return b.Hi[p] - b.Lo[p] }

// LambdaFunc returns the hold bound λ for an FF pair, or -Inf when
// unconstrained.
type LambdaFunc func(from, to int) float64

// NoHoldBounds is a LambdaFunc imposing no constraints.
func NoHoldBounds(from, to int) float64 { return math.Inf(-1) }

// RunBatchTest executes Procedure 2 on one batch: repeatedly solve the
// alignment problem for a clock period and buffer values, apply one
// frequency step to the whole batch, and tighten each path's window from its
// own pass/fail bit; a path is removed once its window is narrower than ε.
//
// The measurement transport is any tester.Session — the simulated ATE, a
// trace replayer, or an instrumented wrapper; the flow only ever sees
// pass/fail bits and applied periods.
//
// It returns the number of tester iterations spent and the time spent in the
// alignment solver (the paper's Tt component). The context is checked before
// every frequency step, so cancelling it aborts a long batch promptly.
func RunBatchTest(ctx context.Context, sess tester.Session, c *circuit.Circuit, batch []int, b *Bounds, lambda LambdaFunc, cfg Config) (int, time.Duration, error) {
	return runBatchTest(ctx, sess, c, batch, b, lambda, cfg, nil, nil, 0, 0, &chipScratch{})
}

// openingSolve is one batch's baked opening alignment solve. Procedure 2
// opens a batch by aligning its paths' starting windows; in a plan's chip
// flow those are the μ±3σ priors, aligned under the plan's hold bounds and
// weights, so every chip poses the same problem and gets the same answer.
// The plan solves it once per batch (bakeOpeningSolves) and runBatchTest
// serves it to every chip whose opening items equal these bit for bit.
type openingSolve struct {
	mode   AlignMode
	items  []alignItem
	t, obj float64
	x      []float64 // private: a hit copies it into the chip's scratch
}

// bakeOpeningSolves solves each batch's opening alignment from the prior
// windows: the first solve of runBatchTest, over the same items, in the
// chip scratch scr. Only the bounded-time modes are baked. The exact MILP
// modes solve live, so that neither Prepare nor Bind blocks on a MILP;
// they return nil.
func bakeOpeningSolves(c *circuit.Circuit, batches [][]int, prior *Bounds, lambda LambdaFunc, cfg Config, scr *chipScratch) []*openingSolve {
	if cfg.AlignMode != AlignHeuristic && cfg.AlignMode != AlignOff {
		return nil
	}
	memo := make([]*openingSolve, len(batches))
	for bi, batch := range batches {
		active := activePaths(scr.active[:0], batch, prior, cfg.Eps)
		scr.active = active[:0]
		if len(active) == 0 {
			continue
		}
		var items []alignItem // owned by the entry
		items, scr.order = fillAlignItems(nil, scr.order, c, active, prior, lambda, cfg)
		res, err := alignSolve(context.Background(), c, items, nil, cfg, &scr.al)
		if err != nil {
			continue // unreachable for the baked modes; the chip solves live
		}
		memo[bi] = &openingSolve{mode: cfg.AlignMode, items: items, t: res.T, obj: res.Obj, x: slices.Clone(res.X)}
	}
	return memo
}

// serves reports whether m holds the solve of items under mode: the same
// mode and the same items, field for field and bit for bit. A nil m serves
// nothing.
func (m *openingSolve) serves(items []alignItem, mode AlignMode) bool {
	if m == nil || m.mode != mode || len(m.items) != len(items) {
		return false
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i := range items {
		a, b := &items[i], &m.items[i]
		if a.path != b.path || a.from != b.from || a.to != b.to ||
			!same(a.lo, b.lo) || !same(a.hi, b.hi) || !same(a.lambda, b.lambda) || !same(a.weight, b.weight) {
			return false
		}
	}
	return true
}

// serve returns the baked result with X copied into the chip's alignment
// scratch, exactly where a live solve leaves it: the warm re-solves that
// follow start from the scratch and never touch the shared slice.
func (m *openingSolve) serve(scr *alignScratch) alignResult {
	scr.x = resizeF(scr.x, len(m.x))
	copy(scr.x, m.x)
	return alignResult{T: m.t, X: scr.x, Obj: m.obj}
}

// activePaths appends to dst the batch's paths whose window is still at
// least eps wide.
func activePaths(dst, batch []int, b *Bounds, eps float64) []int {
	for _, p := range batch {
		if b.Width(p) >= eps {
			dst = append(dst, p)
		}
	}
	return dst
}

// fillAlignItems refills items with the active paths' windows and hold
// bounds and assigns their §3.3 weights through the rank buffer order; it
// returns both, possibly grown, for the caller to keep.
func fillAlignItems(items []alignItem, order []int, c *circuit.Circuit, active []int, b *Bounds, lambda LambdaFunc, cfg Config) ([]alignItem, []int) {
	items = items[:0]
	for _, p := range active {
		pt := &c.Paths[p]
		items = append(items, alignItem{
			path: p, from: pt.From, to: pt.To,
			lo: b.Lo[p], hi: b.Hi[p],
			lambda: lambda(pt.From, pt.To),
		})
	}
	return items, assignWeightsInto(items, cfg.WeightK0, cfg.WeightKd, order)
}

// runBatchTest is RunBatchTest with observer plumbing (chip is the die
// index and batchIdx the batch's position in the plan, both only used to
// tag events), the batch's baked opening solve (nil when there is none)
// and a caller-owned scratch: the items, rank and active buffers the loop
// refills every frequency step live there, so a warm scratch makes the
// bookkeeping of the inner loop allocation-free.
//
// The batch's first solve is served from open when it poses exactly
// open's problem (open.serves); any other first solve — a plan whose hold
// bounds or configuration changed after the bake, or a batch whose windows
// did not start at the priors — solves live.
func runBatchTest(ctx context.Context, sess tester.Session, c *circuit.Circuit, batch []int, b *Bounds, lambda LambdaFunc, cfg Config, open *openingSolve, obs Observer, chip, batchIdx int, scr *chipScratch) (int, time.Duration, error) {
	active := activePaths(scr.active[:0], batch, b, cfg.Eps)
	scr.active = active[:0] // keep a grown backing array for the next batch
	iters := 0
	var alignDur time.Duration
	maxIters := cfg.MaxIterPerPath * len(batch)
	if maxIters == 0 {
		maxIters = 64 * len(batch)
	}
	var prevX []float64

	for len(active) > 0 {
		if err := ctx.Err(); err != nil {
			return iters, alignDur, err
		}
		if iters >= maxIters {
			return iters, alignDur, fmt.Errorf("core: batch did not converge in %d iterations", maxIters)
		}
		var items []alignItem
		items, scr.order = fillAlignItems(scr.items, scr.order, c, active, b, lambda, cfg)
		scr.items = items[:0]

		start := time.Now()
		var res alignResult
		var err error
		if prevX == nil && open.serves(items, cfg.AlignMode) {
			res = open.serve(&scr.al)
		} else {
			res, err = alignSolve(ctx, c, items, prevX, cfg, &scr.al)
		}
		solveDur := time.Since(start)
		alignDur += solveDur
		if err != nil {
			return iters, alignDur, err
		}
		if obs != nil {
			obs.Observe(AlignSolveEvent{Chip: chip, Batch: batchIdx, Period: res.T, Duration: solveDur})
		}
		prevX = res.X

		applied, pass, err := sess.Step(res.T, res.X, active)
		if err != nil {
			return iters, alignDur, err
		}
		iters++
		if obs != nil {
			obs.Observe(FrequencyStepEvent{Chip: chip, Batch: batchIdx, Requested: res.T, Applied: applied, Active: len(active)})
		}

		progressed := false
		next := active[:0]
		for i, p := range active {
			pt := &c.Paths[p]
			tTilde := applied - res.X[pt.From] + res.X[pt.To]
			if pass[i] {
				if tTilde < b.Hi[p] {
					b.Hi[p] = tTilde
					progressed = true
				}
			} else {
				if tTilde > b.Lo[p] {
					b.Lo[p] = tTilde
					progressed = true
				}
			}
			if b.Width(p) >= cfg.Eps {
				next = append(next, p)
			}
		}
		active = next

		if !progressed && len(active) > 0 {
			// Alignment could not place T inside any window (e.g. disjoint
			// ranges beyond buffer reach, Figure 6e). Bisect the highest
			// priority path alone to guarantee progress.
			p := active[0]
			pt := &c.Paths[p]
			tSolo := (b.Lo[p]+b.Hi[p])/2 + res.X[pt.From] - res.X[pt.To]
			if tSolo < 0 {
				tSolo = 0
			}
			appliedSolo, passSolo, err := sess.Step(tSolo, res.X, []int{p})
			if err != nil {
				return iters, alignDur, err
			}
			iters++
			if obs != nil {
				obs.Observe(FrequencyStepEvent{Chip: chip, Batch: batchIdx, Requested: tSolo, Applied: appliedSolo, Active: 1})
			}
			tt := appliedSolo - res.X[pt.From] + res.X[pt.To]
			if passSolo[0] {
				if tt < b.Hi[p] {
					b.Hi[p] = tt
				}
			} else {
				if tt > b.Lo[p] {
					b.Lo[p] = tt
				}
			}
			if b.Width(p) < cfg.Eps {
				nn := active[:0]
				for _, q := range active {
					if q != p {
						nn = append(nn, q)
					}
				}
				active = nn
			}
		}
	}
	return iters, alignDur, nil
}

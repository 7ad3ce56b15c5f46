package core

import (
	"context"
	"fmt"
	"math"
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
	return runBatchTest(ctx, sess, c, batch, b, lambda, cfg, nil, 0, 0, &chipScratch{})
}

// runBatchTest is RunBatchTest with observer plumbing (chip is the die
// index and batchIdx the batch's position in the plan, both only used to
// tag events) and a caller-owned scratch: the items, rank and active
// buffers the loop refills every frequency step live there, so a warm
// scratch makes the bookkeeping of the inner loop allocation-free.
func runBatchTest(ctx context.Context, sess tester.Session, c *circuit.Circuit, batch []int, b *Bounds, lambda LambdaFunc, cfg Config, obs Observer, chip, batchIdx int, scr *chipScratch) (int, time.Duration, error) {
	active := scr.active[:0]
	for _, p := range batch {
		if b.Width(p) >= cfg.Eps {
			active = append(active, p)
		}
	}
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
		items := scr.items[:0]
		for _, p := range active {
			pt := &c.Paths[p]
			items = append(items, alignItem{
				path: p, from: pt.From, to: pt.To,
				lo: b.Lo[p], hi: b.Hi[p],
				lambda: lambda(pt.From, pt.To),
			})
		}
		scr.items = items[:0]
		scr.order = assignWeightsInto(items, cfg.WeightK0, cfg.WeightKd, scr.order)

		start := time.Now()
		res, err := alignSolve(ctx, c, items, prevX, cfg, &scr.al)
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

package core

import (
	"context"
	"errors"
	"slices"
	"sort"
	"sync"
	"time"

	"effitest/internal/circuit"
	"effitest/internal/tester"
)

// ErrChipCircuitMismatch is returned when a chip is run against a plan
// prepared for a different circuit instance.
var ErrChipCircuitMismatch = errors.New("core: chip belongs to a different circuit")

// Plan is the offline (per-circuit, tester-free) part of EffiTest: path
// groups with their PCA selections, the test batches, and the hold-time
// tuning bounds. Its construction time is the paper's Tp.
type Plan struct {
	Circuit *circuit.Circuit
	Cfg     Config

	Groups  []Group
	Tested  []int // all paths measured on the tester (selected + fills)
	Filled  []int // subset of Tested added by slot filling
	Batches [][]int
	Hold    *HoldBounds

	PrepDuration time.Duration

	// circuitHash / circuitName identify the circuit a serialized plan was
	// prepared for (see planio.go); set by Prepare, the codec and Bind.
	circuitHash string
	circuitName string

	// kernels holds the per-group conditional predictors (see kernels.go),
	// baked by Prepare or Bind, and scratch the pool of per-worker
	// workspaces. Both are derived state — never serialized, read-only once
	// installed and shared safely by shallow copies. A plan built by neither
	// has nil kernels and fails every chip with errNoKernels.
	kernels *predictKernels
	scratch *sync.Pool
}

// Prepare runs the offline flow of Figure 4: path selection for prediction,
// test multiplexing (with slot filling), and hold-bound computation.
func Prepare(c *circuit.Circuit, cfg Config) (*Plan, error) {
	return PrepareCtx(context.Background(), c, cfg)
}

// PrepareCtx is Prepare with cancellation: the context is checked between
// the offline stages, between per-group solves inside them and between the
// hold stage's Monte-Carlo blocks, so on a large circuit a cancelled
// PrepareCtx returns promptly with the context's error instead of finishing
// minutes of path selection first.
func PrepareCtx(ctx context.Context, c *circuit.Circuit, cfg Config) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	groups, tested, err := selectPathsCtx(ctx, c, cfg)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	batches := FormBatches(c, tested, cfg)
	var filled []int
	if cfg.FillSlots {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sig, err := PredictSigmas(c, groups, tested)
		if err != nil {
			return nil, err
		}
		batches, filled = FillSlots(c, batches, tested, sig, cfg)
		if len(filled) > 0 {
			tested = append(append([]int{}, tested...), filled...)
			sort.Ints(tested)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	hb, err := computeHoldBounds(ctx, c, cfg)
	if err != nil {
		return nil, err
	}
	pl := &Plan{
		Circuit: c,
		Cfg:     cfg,
		Groups:  groups,
		Tested:  tested,
		Filled:  filled,
		Batches: batches,
		Hold:    hb,
	}
	// Bake the conditional-prediction kernels for the final tested set: the
	// ridged Cholesky factors, cross-covariance gains and conditional
	// sigmas the per-chip flow applies without re-factorizing (kernels.go).
	// They are derived state — recomputed, never serialized — so plan
	// artifacts stay compact and independent of the kernel layout.
	ks, err := bakePredictKernels(ctx, c, groups, tested, cfg.Workers)
	if err != nil {
		return nil, err
	}
	pl.installKernels(ks)
	pl.PrepDuration = time.Since(start)
	return pl, nil
}

// NumTested returns the paper's npt.
func (pl *Plan) NumTested() int { return len(pl.Tested) }

// RunOptions selects the pluggable pieces of chip execution: the
// measurement transport and the event sink. The zero value is the default
// flow — in-process simulated ATE, no events.
type RunOptions struct {
	// Backend is the measurement transport (nil = tester.SimBackend{}).
	Backend tester.Backend
	// Observer receives typed flow events (nil = none). Chips run
	// concurrently, so the observer must be safe for concurrent use.
	Observer Observer
}

func (o RunOptions) backend() tester.Backend {
	if o.Backend == nil {
		return tester.SimBackend{}
	}
	return o.Backend
}

// ChipOutcome is the per-chip result of the online flow.
type ChipOutcome struct {
	Iterations int   // tester frequency steps (the paper's per-chip ta term)
	ScanBits   int64 // configuration bits shifted through the scan chain

	AlignDuration   time.Duration // Tt component
	ConfigDuration  time.Duration // Ts component
	PredictDuration time.Duration // Tp component spent per chip (§3.4 prediction)

	Bounds     *Bounds   // final per-path delay windows (measured/predicted)
	X          []float64 // configured buffer values
	Xi         float64
	Configured bool // a feasible configuration was found
	Passed     bool // final pass/fail test at Td (setup + hold)
	// AchievedPeriod is a configured chip's post-tuning achievable period
	// under X (tester.Chip.AchievedPeriod), the quantity clock binning
	// classifies on; 0 when unconfigured. finishChip computes it once, so
	// consumers of the outcome never need the chip again.
	AchievedPeriod float64
}

// RunChip executes the online flow on one manufactured chip: aligned delay
// test of every batch, conditional prediction of the untested paths, buffer
// configuration, and the final pass/fail test. The context is checked on
// every batch and every tester iteration inside a batch, so a cancelled run
// aborts promptly with the context's error. opts selects the measurement
// backend and the event observer, which sees BatchStart/End, AlignSolve,
// FrequencyStep, Predict and ChipDone events for this chip (identified by
// Chip.Index). RunChip is safe for concurrent use on distinct chips — each
// run owns its measurement session and bounds, and the plan is read-only
// after Prepare.
//
// A lone chip is a batch of one: RunChip is runChipBatch over a pooled
// scratch, the same executor RunChips drives.
func (pl *Plan) RunChip(ctx context.Context, ch *tester.Chip, Td float64, opts RunOptions) (*ChipOutcome, error) {
	scr := pl.getScratch()
	defer pl.putScratch(scr)
	r := pl.runChipBatch(ctx, 0, []*tester.Chip{ch}, Td, opts, scr)[0]
	return r.Outcome, r.Err
}

// measureChip runs the measurement phase — aligned delay test of every
// batch — returning the partial outcome (iterations, scan bits, alignment
// time) and the per-path bounds with the tested paths resolved.
func (pl *Plan) measureChip(ctx context.Context, ch *tester.Chip, opts RunOptions, scr *chipScratch) (*ChipOutcome, *Bounds, error) {
	c, cfg, obs := pl.Circuit, pl.Cfg, opts.Observer
	out := &ChipOutcome{}
	b := InitBounds(c)
	sess, err := opts.backend().Open(ch, cfg.TesterResolution)
	if err != nil {
		return nil, nil, err
	}
	lambda := pl.Hold.Lambda
	for bi, batch := range pl.Batches {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		observe(obs, BatchStartEvent{Chip: ch.Index, Batch: bi, Paths: len(batch)})
		iters, alignDur, err := runBatchTest(ctx, sess, c, batch, b, lambda, cfg, obs, ch.Index, bi, scr)
		observe(obs, BatchEndEvent{Chip: ch.Index, Batch: bi, Iterations: iters, AlignTime: alignDur, Err: err})
		if err != nil {
			return nil, nil, err
		}
		out.Iterations += iters
		out.AlignDuration += alignDur
	}
	_, out.ScanBits = sess.Counters()
	return out, b, nil
}

// finishChip runs the configuration phase: final buffer values (Eqs. 15–18)
// and the pass/fail test at Td.
func (pl *Plan) finishChip(ch *tester.Chip, Td float64, out *ChipOutcome, b *Bounds) error {
	out.Bounds = b
	cfgStart := time.Now()
	res, err := Configure(pl.Circuit, b, pl.Hold, Td, pl.Cfg)
	out.ConfigDuration = time.Since(cfgStart)
	if err != nil {
		return err
	}
	out.Configured = res.Feasible
	if res.Feasible {
		out.X = res.X
		out.Xi = res.Xi
		out.Passed = ch.PassesAt(Td, res.X) && ch.HoldOK(res.X)
		out.AchievedPeriod = ch.AchievedPeriod(res.X)
	} else {
		out.X = make([]float64, pl.Circuit.NumFF)
	}
	return nil
}

// chipDone emits the terminal per-chip event.
func chipDone(obs Observer, chip int, out *ChipOutcome, err error) {
	if obs == nil {
		return
	}
	e := ChipDoneEvent{Chip: chip, Err: err}
	if out != nil {
		e.Iterations = out.Iterations
		e.Configured = out.Configured
		e.Passed = out.Passed
	}
	obs.Observe(e)
}

// runChipBatch executes a contiguous run of chips as one scheduling unit —
// the only chip executor: measurement chip by chip, then §3.4 prediction
// batched across every chip that measured cleanly — one TRSM-shaped
// multi-RHS kernel call per correlation group — then configuration chip by
// chip. Outcomes are bit-identical at any batch width (the multi-RHS
// kernels compute each column independently of the others) and a chip's
// failure stays its own result: the rest of the batch proceeds without it.
// The returned slice is parallel to chips, entry i carrying Index first+i;
// it lives in scr and is valid until the scratch's next batch.
//
// The batch's prediction wall time is attributed evenly: each predicted
// chip's PredictDuration is the batch total divided by the batch's live
// chip count.
func (pl *Plan) runChipBatch(ctx context.Context, first int, chips []*tester.Chip, Td float64, opts RunOptions, scr *chipScratch) []ChipResult {
	obs := opts.Observer
	res := slices.Grow(scr.res[:0], len(chips))[:len(chips)]
	bs := slices.Grow(scr.bs[:0], len(chips))[:len(chips)]
	clear(bs)
	scr.res, scr.bs = res, bs
	ks := pl.kernels
	if ks == nil {
		// A plan without kernels cannot predict: fail every chip before any
		// tester session opens rather than measure them for nothing.
		for i, ch := range chips {
			res[i] = ChipResult{Index: first + i, Chip: ch, Err: errNoKernels}
			chipDone(obs, ch.Index, nil, errNoKernels)
		}
		return res
	}
	for i, ch := range chips {
		res[i] = ChipResult{Index: first + i, Chip: ch}
		if ch.Circuit != pl.Circuit {
			// A mismatched chip fails before the observer is engaged, so no
			// ChipDone event.
			res[i].Err = ErrChipCircuitMismatch
			continue
		}
		if err := ctx.Err(); err != nil {
			res[i].Err = err
			chipDone(obs, ch.Index, nil, err)
			continue
		}
		out, b, err := pl.measureChip(ctx, ch, opts, scr)
		if err != nil {
			res[i].Err = err
			chipDone(obs, ch.Index, nil, err)
			continue
		}
		res[i].Outcome = out
		bs[i] = b
	}

	// Batched prediction over the survivors.
	live := scr.bounds[:0]
	for _, b := range bs {
		if b != nil {
			live = append(live, b)
		}
	}
	scr.bounds = live
	var share time.Duration
	if len(live) > 0 {
		predStart := time.Now()
		ks.predictInto(live, &scr.ws)
		share = time.Since(predStart) / time.Duration(len(live))
	}

	for i, ch := range chips {
		if bs[i] == nil {
			continue
		}
		out, b := res[i].Outcome, bs[i]
		out.PredictDuration = share
		if obs != nil {
			obs.Observe(PredictEvent{Chip: ch.Index, Duration: share, Groups: ks.predGroups, Predicted: ks.predPaths})
		}
		if err := pl.finishChip(ch, Td, out, b); err != nil {
			res[i].Outcome, res[i].Err = nil, err
			chipDone(obs, ch.Index, nil, err)
			continue
		}
		chipDone(obs, ch.Index, out, nil)
	}
	return res
}

package core

import (
	"context"
	"errors"
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
	// prior holds the μ±3σ starting windows every chip copies, and conf the
	// FF-pair topology and lattice solver of configuration (configure.go).
	// installKernels bakes both next to the kernels, with the same
	// lifetime: they are released with the plan.
	prior *Bounds
	conf  *configKernel
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
	PredictDuration time.Duration // the chip's §3.4 prediction wall time (Tp component)

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
// RunChip is runChip over a pooled scratch, the same executor RunChips'
// workers call.
func (pl *Plan) RunChip(ctx context.Context, ch *tester.Chip, Td float64, opts RunOptions) (*ChipOutcome, error) {
	scr := pl.getScratch()
	defer pl.putScratch(scr)
	return pl.runChip(ctx, ch, Td, opts, scr)
}

// measureChip runs the measurement phase — aligned delay test of every
// batch — returning the partial outcome (iterations, scan bits, alignment
// time) and the per-path bounds with the tested paths resolved.
func (pl *Plan) measureChip(ctx context.Context, ch *tester.Chip, opts RunOptions, scr *chipScratch) (*ChipOutcome, *Bounds, error) {
	c, cfg, obs := pl.Circuit, pl.Cfg, opts.Observer
	out := &ChipOutcome{}
	b := pl.prior.clone()
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
func (pl *Plan) finishChip(ch *tester.Chip, Td float64, out *ChipOutcome, b *Bounds, scr *chipScratch) {
	out.Bounds = b
	cfgStart := time.Now()
	res := pl.conf.configure(b, pl.Hold, Td, &scr.conf)
	out.ConfigDuration = time.Since(cfgStart)
	out.Configured = res.Feasible
	if res.Feasible {
		out.X = res.X
		out.Xi = res.Xi
		out.Passed = ch.PassesAt(Td, res.X) && ch.HoldOK(res.X)
		out.AchievedPeriod = ch.AchievedPeriod(res.X)
	} else {
		out.X = make([]float64, pl.Circuit.NumFF)
	}
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

// runChip is the only chip executor: measurement, §3.4 prediction on the
// chip's measured bounds through the baked kernels, then configuration. The
// scratch's buffers are reused across every chip a worker runs.
func (pl *Plan) runChip(ctx context.Context, ch *tester.Chip, Td float64, opts RunOptions, scr *chipScratch) (*ChipOutcome, error) {
	obs := opts.Observer
	fail := func(err error) (*ChipOutcome, error) {
		chipDone(obs, ch.Index, nil, err)
		return nil, err
	}
	ks := pl.kernels
	if ks == nil {
		// A plan without kernels cannot predict: fail the chip before any
		// tester session opens rather than measure it for nothing.
		return fail(errNoKernels)
	}
	if ch.Circuit != pl.Circuit {
		// A mismatched chip fails before the observer is engaged, so no
		// ChipDone event.
		return nil, ErrChipCircuitMismatch
	}
	if err := ctx.Err(); err != nil {
		return fail(err)
	}
	out, b, err := pl.measureChip(ctx, ch, opts, scr)
	if err != nil {
		return fail(err)
	}
	predStart := time.Now()
	ks.predictInto(b, &scr.ws)
	out.PredictDuration = time.Since(predStart)
	if obs != nil {
		obs.Observe(PredictEvent{Chip: ch.Index, Duration: out.PredictDuration, Groups: ks.predGroups, Predicted: ks.predPaths})
	}
	pl.finishChip(ch, Td, out, b, scr)
	chipDone(obs, ch.Index, out, nil)
	return out, nil
}

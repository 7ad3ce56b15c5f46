package effitest

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"iter"
	"math"

	"effitest/internal/circuit"
	"effitest/internal/core"
	"effitest/internal/rng"
	"effitest/internal/tester"
	"effitest/internal/yield"
)

// ChipResult is one element of the stream produced by Engine.RunChips: the
// chip's position in the input slice plus either its outcome or its
// per-chip error.
type ChipResult = core.ChipResult

// ProposedStats aggregates per-chip outcomes of the EffiTest flow over a
// chip population (yield, average tester cost, solver runtimes).
type ProposedStats = yield.ProposedStats

// ErrChipCircuitMismatch is returned when a chip is run on an engine (or
// plan) prepared for a different circuit instance.
var ErrChipCircuitMismatch = core.ErrChipCircuitMismatch

// Option configures an Engine at construction time. Options layer over the
// paper-aligned defaults of DefaultConfig; the zero set of options gives
// the flow exactly as evaluated in the paper.
type Option func(*engineSettings)

type engineSettings struct {
	cfg        core.Config
	period     float64
	periodSet  bool
	quantile   float64
	calibChips int

	backend   tester.Backend
	observer  core.Observer
	cacheDir  string
	plan      *core.Plan
	planIsSet bool
}

// WithConfig replaces the engine's entire flow configuration. Options
// appearing after it still apply on top, so it can serve as a custom base.
func WithConfig(cfg Config) Option {
	return func(s *engineSettings) { s.cfg = cfg }
}

// WithAlignMode selects the §3.3 alignment solver (AlignHeuristic,
// AlignFastMILP, AlignPaperILP or AlignOff).
func WithAlignMode(m AlignMode) Option {
	return func(s *engineSettings) { s.cfg.AlignMode = m }
}

// WithConfigureMode selects the final buffer-configuration solver
// (ConfigureScalable or ConfigureMILP).
func WithConfigureMode(m ConfigureMode) Option {
	return func(s *engineSettings) { s.cfg.ConfigMode = m }
}

// WithEpsilon sets the delay-range termination threshold ε of Procedure 2
// in ns: a path is resolved once its window is narrower than eps.
func WithEpsilon(eps float64) Option {
	return func(s *engineSettings) { s.cfg.Eps = eps }
}

// WithSeed sets the master seed driving every random stream (hold-bound
// sampling, tie-breaking, period calibration).
func WithSeed(seed int64) Option {
	return func(s *engineSettings) { s.cfg.Seed = seed }
}

// WithWorkers bounds the goroutines used by RunChips and everything built
// on it. 0 (the default) means one worker per logical CPU; 1 forces
// sequential execution; negative counts are rejected by New. Results are
// bit-identical at any worker count.
func WithWorkers(n int) Option {
	return func(s *engineSettings) { s.cfg.Workers = n }
}

// WithMaxBatch caps the size of a test batch (0 = unlimited).
func WithMaxBatch(n int) Option {
	return func(s *engineSettings) { s.cfg.MaxBatch = n }
}

// WithSlotFilling enables or disables §3.2's empty-slot filling with
// high-variance paths.
func WithSlotFilling(enabled bool) Option {
	return func(s *engineSettings) { s.cfg.FillSlots = enabled }
}

// WithHoldYield sets the hold-yield target Y of Eq. (20).
func WithHoldYield(y float64) Option {
	return func(s *engineSettings) { s.cfg.HoldYield = y }
}

// WithHoldSamples sets the Monte-Carlo sample count M of §3.5.
func WithHoldSamples(n int) Option {
	return func(s *engineSettings) { s.cfg.HoldSamples = n }
}

// WithTesterResolution sets the ATE clock-period granularity in ns.
func WithTesterResolution(r float64) Option {
	return func(s *engineSettings) { s.cfg.TesterResolution = r }
}

// WithPeriod pins the engine's test clock period Td (ns) instead of
// calibrating it from the no-tuning critical-delay distribution.
func WithPeriod(td float64) Option {
	return func(s *engineSettings) {
		s.period = td
		s.periodSet = true
	}
}

// WithPeriodQuantile calibrates the engine's test period as the q-quantile
// of the no-tuning critical delay over `chips` Monte-Carlo chips (the
// default is q = 0.8413 over 2000 chips — the paper's T2).
func WithPeriodQuantile(q float64, chips int) Option {
	return func(s *engineSettings) {
		s.quantile = q
		s.calibChips = chips
		s.periodSet = false
	}
}

// WithBackend selects the measurement transport chips are executed
// against: the in-process simulated ATE by default (SimBackend), a
// ReplayBackend for deterministic offline re-runs of a recorded trace, a
// FaultBackend for resilience tests, or any custom Backend bridging to
// real tester hardware. The backend must be safe for concurrent session
// opens; nil restores the default.
func WithBackend(be Backend) Option {
	return func(s *engineSettings) { s.backend = be }
}

// WithObserver registers a sink for typed flow events: prepare done, batch
// start/end, alignment solves, frequency steps and chip completions.
// Chips execute concurrently, so the observer must be safe for concurrent
// use and fast (it runs inline on the measurement hot path).
func WithObserver(obs Observer) Option {
	return func(s *engineSettings) { s.observer = obs }
}

// WithPlanCache points the engine at a content-addressed on-disk plan
// cache: if dir already holds a plan for this (circuit, configuration),
// the expensive offline Prepare is skipped entirely and the artifact is
// loaded instead; otherwise Prepare runs once and its result is stored for
// every later process. The cache key covers the circuit fingerprint, every
// Prepare-relevant configuration field and the plan format version, so a
// stale entry can never be served. PlanCacheHit reports what happened.
func WithPlanCache(dir string) Option {
	return func(s *engineSettings) { s.cacheDir = dir }
}

// WithPlan supplies a pre-built plan (typically from LoadPlan) instead of
// running Prepare. The plan must be bound to the same circuit handed to
// New. The engine adopts the plan's flow configuration wholesale, so
// flow-config options alongside WithPlan have no effect — except the
// execution knob WithWorkers, which still applies on top, since it never
// shaped a plan.
func WithPlan(pl *Plan) Option {
	return func(s *engineSettings) {
		s.plan = pl
		s.planIsSet = true
	}
}

// Engine is the per-circuit entry point of the EffiTest flow: it holds the
// prepared Plan (Procedure 1 path selection, test batches, hold bounds) and
// the calibrated test period, and executes chips — sequentially or fanned
// across a bounded worker pool — with context cancellation.
//
// An Engine is immutable after New and safe for concurrent use.
type Engine struct {
	c        *circuit.Circuit
	plan     *core.Plan
	period   float64
	backend  tester.Backend
	observer core.Observer
	cacheHit bool
}

// runOpts bundles the engine's pluggable pieces for the core flow.
func (e *Engine) runOpts() core.RunOptions {
	return core.RunOptions{Backend: e.backend, Observer: e.observer}
}

// New prepares an Engine for the circuit: it runs the offline flow
// (Prepare) under the configuration assembled from the options and
// calibrates the test period (unless WithPeriod pinned one). Invalid
// option values (non-positive ε, negative worker counts, out-of-range
// quantiles, ...) fail construction with a descriptive error.
//
//	eng, err := effitest.New(c,
//		effitest.WithAlignMode(effitest.AlignHeuristic),
//		effitest.WithEpsilon(0.002),
//		effitest.WithWorkers(8),
//	)
func New(c *Circuit, opts ...Option) (*Engine, error) {
	return NewCtx(context.Background(), c, opts...)
}

// defaultSettings is the option-resolution baseline shared by NewCtx and
// SummarizeOptions: the paper-aligned flow defaults plus the T2 period
// calibration (q = 0.8413 over 2000 chips).
func defaultSettings() engineSettings {
	return engineSettings{
		cfg:        core.DefaultConfig(),
		quantile:   0.8413,
		calibChips: 2000,
	}
}

// OptionsSummary describes what an option list resolves to, without running
// any preparation. Fleet registries use it to key live engines before the
// expensive construction work happens.
type OptionsSummary struct {
	// Config is the resolved flow configuration.
	Config Config
	// Fingerprint is a stable hash of every setting that shapes the
	// engine's numbers: the flow configuration (Workers excluded — the
	// worker count never changes an outcome) and the period policy (pinned
	// period, or calibration quantile and chip count). Execution knobs
	// (WithWorkers, WithPlanCache) are deliberately excluded: engines
	// differing only in those produce identical results. WithBackend and
	// WithObserver are excluded too, but they are baked into a constructed
	// engine — callers deduplicating engines by Fingerprint must not share
	// them (see HasBackend/HasObserver).
	Fingerprint string
	// HasPlan reports a WithPlan option: the supplied artifact, not the
	// resolved options, then governs the flow, so such engines must not be
	// deduplicated by Fingerprint.
	HasPlan bool
	// HasBackend / HasObserver report a custom measurement transport or
	// event sink. Both are baked into the engine at construction, so an
	// engine built with either must not be served to callers that did not
	// supply it (a fleet registry constructs such engines caller-private).
	HasBackend  bool
	HasObserver bool
	// PlanCacheDir is the WithPlanCache directory, if any.
	PlanCacheDir string
}

// SummarizeOptions resolves the option list over the engine defaults and
// reports the resulting configuration and its fingerprint.
func SummarizeOptions(opts ...Option) OptionsSummary {
	s := defaultSettings()
	for _, o := range opts {
		o(&s)
	}
	// Canonicalize the period policy before hashing: only the active arm's
	// values matter (WithPeriodQuantile after WithPeriod leaves a stale
	// period behind, and vice versa), so zero the inactive arm to keep
	// equivalent option lists on one fingerprint.
	period, quantile, calib := s.period, s.quantile, s.calibChips
	if s.periodSet {
		quantile, calib = 0, 0
	} else {
		period = 0
	}
	h := sha256.New()
	fmt.Fprintf(h, "effitest-options|config:%s|periodSet:%t|period:%v|quantile:%v|calib:%d",
		core.ConfigFingerprint(s.cfg), s.periodSet, period, quantile, calib)
	return OptionsSummary{
		Config:       s.cfg,
		Fingerprint:  hex.EncodeToString(h.Sum(nil)),
		HasPlan:      s.planIsSet,
		HasBackend:   s.backend != nil,
		HasObserver:  s.observer != nil,
		PlanCacheDir: s.cacheDir,
	}
}

// NewCtx is New with cancellation of the construction work: both the
// offline Prepare (checked between path-selection groups and offline
// stages) and the period calibration (a Monte-Carlo sweep over thousands
// of chips) abort promptly when the context is cancelled.
func NewCtx(ctx context.Context, c *Circuit, opts ...Option) (*Engine, error) {
	s := defaultSettings()
	for _, o := range opts {
		o(&s)
	}
	if s.periodSet {
		if math.IsNaN(s.period) || math.IsInf(s.period, 0) || s.period <= 0 {
			return nil, fmt.Errorf("effitest: test period must be positive, got %v", s.period)
		}
	} else {
		if math.IsNaN(s.quantile) || s.quantile <= 0 || s.quantile >= 1 {
			return nil, fmt.Errorf("effitest: period quantile must be in (0, 1), got %v", s.quantile)
		}
		if s.calibChips <= 0 {
			return nil, fmt.Errorf("effitest: period-quantile chip count must be positive, got %d", s.calibChips)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	plan, cacheHit, err := resolvePlan(ctx, c, &s)
	if err != nil {
		return nil, err
	}
	period := s.period
	if !s.periodSet {
		period, err = yield.PeriodQuantileCtx(ctx, c,
			rng.Seed(plan.Cfg.Seed, "engine-period", c.Name), s.calibChips, s.quantile, plan.Cfg.Workers)
		if err != nil {
			return nil, err
		}
	}
	e := &Engine{c: c, plan: plan, period: period, backend: s.backend, observer: s.observer, cacheHit: cacheHit}
	if e.observer != nil {
		e.observer.Observe(core.PrepareDoneEvent{
			Circuit:  c.Name,
			Groups:   len(plan.Groups),
			Tested:   plan.NumTested(),
			Batches:  len(plan.Batches),
			Duration: plan.PrepDuration,
			CacheHit: cacheHit,
		})
	}
	return e, nil
}

// resolvePlan produces the engine's plan by precedence: an explicit
// WithPlan artifact, then a WithPlanCache lookup (preparing and storing on
// a miss), then a plain context-aware Prepare. It reports whether the
// expensive Prepare was skipped.
func resolvePlan(ctx context.Context, c *Circuit, s *engineSettings) (*core.Plan, bool, error) {
	if s.planIsSet {
		if s.plan == nil {
			return nil, false, fmt.Errorf("effitest: WithPlan(nil)")
		}
		// Shallow-copy the supplied plan: the engine owns its plan's Cfg
		// (the worker count below), and the caller may share one loaded
		// artifact across several engines. The deep state (groups, batches,
		// hold bounds) is never written, by Bind or by a run, so sharing it
		// is safe.
		pl := *s.plan
		// The plan's configuration governs the flow; only the engine's
		// worker count applies on top — set before Bind, so its kernel bake
		// fans out at the engine's width.
		pl.Cfg.Workers = s.cfg.Workers
		if pl.Circuit == nil {
			if err := pl.Bind(c); err != nil {
				return nil, false, err
			}
		} else if pl.Circuit != c {
			return nil, false, core.ErrChipCircuitMismatch
		}
		if err := pl.Cfg.Validate(); err != nil {
			return nil, false, err
		}
		return &pl, true, nil
	}
	if s.cacheDir != "" {
		return core.PrepareCached(ctx, s.cacheDir, c, s.cfg)
	}
	pl, err := core.PrepareCtx(ctx, c, s.cfg)
	return pl, false, err
}

// PlanCacheHit reports whether the engine's plan came from a cache or a
// supplied artifact (true) rather than a fresh Prepare (false).
func (e *Engine) PlanCacheHit() bool { return e.cacheHit }

// ConfigFingerprint returns the hash of the engine's Prepare-relevant flow
// configuration (Workers excluded) — the configuration half of the
// plan-cache key. Fleet registries key on SummarizeOptions.Fingerprint
// instead, which additionally covers the period policy: two engines can
// share a ConfigFingerprint (and therefore a cached plan) while being
// distinct registry entries with different calibrated periods.
func (e *Engine) ConfigFingerprint() string { return core.ConfigFingerprint(e.plan.Cfg) }

// Circuit returns the engine's circuit.
func (e *Engine) Circuit() *Circuit { return e.c }

// Plan returns the prepared offline plan (groups, batches, hold bounds).
func (e *Engine) Plan() *Plan { return e.plan }

// Config returns the engine's flow configuration.
func (e *Engine) Config() Config { return e.plan.Cfg }

// Period returns the engine's test clock period Td in ns.
func (e *Engine) Period() float64 { return e.period }

// RunChip executes the online flow on one chip at the engine's period,
// against the engine's measurement backend. The context is checked on
// every tester iteration, so cancellation aborts promptly with the
// context's error.
func (e *Engine) RunChip(ctx context.Context, ch *Chip) (*ChipOutcome, error) {
	return e.plan.RunChip(ctx, ch, e.period, e.runOpts())
}

// RunChipObserved is RunChip with an additional event sink for this call
// only: obs receives the chip's flow events alongside any observer baked
// into the engine at construction. This is how a service layer attaches
// process-wide instrumentation (e.g. a metrics sink) to engines that are
// shared across callers — the engine itself stays immutable, so registry
// deduplication is unaffected. A nil obs is equivalent to RunChip.
func (e *Engine) RunChipObserved(ctx context.Context, ch *Chip, obs Observer) (*ChipOutcome, error) {
	opts := e.runOpts()
	opts.Observer = fanoutObserver(opts.Observer, obs)
	return e.plan.RunChip(ctx, ch, e.period, opts)
}

// fanoutObserver merges two optional observers into one sink.
func fanoutObserver(a, b core.Observer) core.Observer {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	return core.ObserverFunc(func(e core.Event) {
		a.Observe(e)
		b.Observe(e)
	})
}

// RunChips fans the chips across the engine's worker pool (WithWorkers) and
// streams one ChipResult per chip — outcome or per-chip error, plus index —
// strictly in input order. Outcomes are bit-identical to a sequential loop
// of RunChip calls. The sequence is single-use; breaking out of the range
// stops the remaining chips and releases the workers. Cancelling the
// context aborts in-flight chips promptly, and the remaining results carry
// the context's error.
func (e *Engine) RunChips(ctx context.Context, chips []*Chip) iter.Seq[ChipResult] {
	return e.plan.RunChips(ctx, chips, e.period, e.plan.Cfg.Workers, e.runOpts())
}

// RunChipsAll collects the full stream, returning one outcome per chip (in
// input order) or the lowest-index per-chip error.
func (e *Engine) RunChipsAll(ctx context.Context, chips []*Chip) ([]*ChipOutcome, error) {
	return e.plan.RunChipsAll(ctx, chips, e.period, e.plan.Cfg.Workers, e.runOpts())
}

// Yield runs the full flow on every chip at the engine's period and
// aggregates yield and tester cost across the worker pool.
func (e *Engine) Yield(ctx context.Context, chips []*Chip) (ProposedStats, error) {
	return yield.ProposedOpts(ctx, e.plan, chips, e.period, e.runOpts())
}

// SampleChips manufactures n chips of the engine's circuit on the worker
// pool, deterministically in (seed, index). A negative n is an error.
func (e *Engine) SampleChips(ctx context.Context, seed int64, n int) ([]*Chip, error) {
	return tester.SampleChipRangeCtx(ctx, e.c, seed, 0, n, e.plan.Cfg.Workers)
}

// SampleChipRange manufactures the n chips with manufacturing indices
// [first, first+n) of the seed-keyed population — exactly the chips
// SampleChips(ctx, seed, first+n) would return at those positions, since
// chip i depends only on (seed, i). A negative first or n is an error.
func (e *Engine) SampleChipRange(ctx context.Context, seed int64, first, n int) ([]*Chip, error) {
	return tester.SampleChipRangeCtx(ctx, e.c, seed, first, n, e.plan.Cfg.Workers)
}

package conformance

import (
	"context"
	"fmt"
	"math"

	"effitest"
	"effitest/internal/circuit"
	"effitest/internal/core"
	"effitest/internal/exp"
	"effitest/internal/tester"
	"effitest/workload"
)

// PipelineResult is the full output of a pipeline scenario: the snapshot
// plus the live objects, so invariant checks and metamorphic tests can
// inspect the plan and raw outcomes without re-running anything.
type PipelineResult struct {
	Circuit *circuit.Circuit
	Engine  *effitest.Engine
	Chips   []*tester.Chip
	Outs    []*core.ChipOutcome
	Snap    *Snapshot
}

// Config builds the scenario's flow configuration over the paper defaults.
func (s Scenario) Config() core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = s.Seed
	cfg.Eps = s.Eps
	cfg.AlignMode = s.Align
	return cfg
}

func (s Scenario) meta() Meta {
	return Meta{
		Name:     s.Name(),
		Kind:     string(s.Kind),
		Circuit:  s.circuitName(),
		Align:    s.Align.String(),
		Eps:      s.Eps,
		Seed:     s.Seed,
		GenSeed:  s.GenSeed,
		ChipSeed: s.ChipSeed,
		Chips:    s.Chips,
	}
}

// Run executes the scenario and returns its canonical snapshot.
func Run(ctx context.Context, sc Scenario) (*Snapshot, error) {
	switch sc.Kind {
	case KindPipeline, KindBinning:
		res, err := RunPipeline(ctx, sc)
		if err != nil {
			return nil, err
		}
		return res.Snap, nil
	case KindAging:
		return runAging(ctx, sc)
	}
	return runExp(ctx, sc)
}

// RunPipeline executes a pipeline scenario end to end: generate the
// circuit, prepare the engine (offline flow + period calibration), run the
// chip fleet through Engine.RunChips, and aggregate.
func RunPipeline(ctx context.Context, sc Scenario) (*PipelineResult, error) {
	if sc.Kind != KindPipeline && sc.Kind != KindBinning {
		return nil, fmt.Errorf("conformance: scenario %s is not a pipeline scenario", sc.Name())
	}
	p, err := sc.Profile()
	if err != nil {
		return nil, err
	}
	c, err := circuit.Generate(p, sc.GenSeed)
	if err != nil {
		return nil, fmt.Errorf("conformance: %s: generate: %w", sc.Name(), err)
	}
	opts := []effitest.Option{
		effitest.WithConfig(sc.Config()),
		effitest.WithPeriodQuantile(sc.Quantile, sc.CalibChips),
	}
	if sc.PlanCache != "" {
		opts = append(opts, effitest.WithPlanCache(sc.PlanCache))
	}
	if sc.Backend != nil {
		opts = append(opts, effitest.WithBackend(sc.Backend))
	}
	if sc.Observer != nil {
		opts = append(opts, effitest.WithObserver(sc.Observer))
	}
	eng, err := effitest.NewCtx(ctx, c, opts...)
	if err != nil {
		return nil, fmt.Errorf("conformance: %s: engine: %w", sc.Name(), err)
	}
	chips, err := eng.SampleChips(ctx, sc.ChipSeed, sc.Chips)
	if err != nil {
		return nil, err
	}
	// Aging, chip by chip after sampling exactly as the fleet layer does,
	// so conformance and campaign numbers agree.
	for i, ch := range chips {
		chips[i] = workload.ApplyDrift(ch, sc.Drift)
	}
	outs := make([]*core.ChipOutcome, 0, len(chips))
	for r := range eng.RunChips(ctx, chips) {
		if r.Err != nil {
			return nil, fmt.Errorf("conformance: %s: chip %d: %w", sc.Name(), r.Index, r.Err)
		}
		outs = append(outs, r.Outcome)
	}

	plan := eng.Plan()
	ps := &PipelineSnap{
		NumPaths:   c.NumPaths(),
		NumTested:  plan.NumTested(),
		NumFilled:  len(plan.Filled),
		NumBatches: len(plan.Batches),
		Period:     eng.Period(),
	}
	for _, b := range plan.Batches {
		ps.MaxBatch = max(ps.MaxBatch, len(b))
	}
	var passed, configured, sumIters int
	var sumScan int64
	for _, out := range outs {
		cs := ChipSnap{
			Iterations: out.Iterations,
			ScanBits:   out.ScanBits,
			Configured: out.Configured,
			Passed:     out.Passed,
			Xi:         out.Xi,
		}
		for _, x := range out.X {
			cs.XSum += x
			cs.XAbsSum += math.Abs(x)
		}
		for i := range out.Bounds.Lo {
			cs.BoundsLo += out.Bounds.Lo[i]
			cs.BoundsHi += out.Bounds.Hi[i]
		}
		ps.Chips = append(ps.Chips, cs)
		sumIters += out.Iterations
		sumScan += out.ScanBits
		if out.Configured {
			configured++
		}
		if out.Passed {
			passed++
		}
	}
	n := float64(len(outs))
	if n > 0 {
		ps.Yield = float64(passed) / n
		ps.AvgIterations = float64(sumIters) / n
		ps.AvgScanBits = float64(sumScan) / n
		ps.ConfiguredFrac = float64(configured) / n
	}
	snap := &Snapshot{Format: SnapshotFormat, Scenario: sc.meta(), Pipeline: ps}
	if sc.Kind == KindBinning {
		snap.Binning = binningSnap(sc.BinEdges, outs)
	}
	return &PipelineResult{
		Circuit: c,
		Engine:  eng,
		Chips:   chips,
		Outs:    outs,
		Snap:    snap,
	}, nil
}

// binningSnap classifies every chip of a finished run into the period bins:
// configured chips by their post-tuning achievable period, unconfigured
// chips as unbinned — the same fold the fleet layer aggregates on the wire.
func binningSnap(edges []float64, outs []*core.ChipOutcome) *BinningSnap {
	agg := workload.NewBinAgg(edges)
	for _, out := range outs {
		if out.Configured {
			agg.Observe(out.AchievedPeriod)
		} else {
			agg.ObserveUnbinned()
		}
	}
	return &BinningSnap{
		Edges:    append([]float64(nil), edges...),
		Counts:   append([]int(nil), agg.Counts...),
		Unbinned: agg.Unbinned,
	}
}

// runAging sweeps the drift axis: one pipeline run per drift point over the
// same sampled population, snapshotting the yield-vs-drift curve.
func runAging(ctx context.Context, sc Scenario) (*Snapshot, error) {
	if sc.Kind != KindAging {
		return nil, fmt.Errorf("conformance: scenario %s is not an aging scenario", sc.Name())
	}
	snap := &Snapshot{Format: SnapshotFormat, Scenario: sc.meta(), Aging: &AgingSnap{}}
	for _, d := range sc.Drifts {
		point := sc
		point.Kind = KindPipeline
		point.Drift = d
		res, err := RunPipeline(ctx, point)
		if err != nil {
			return nil, fmt.Errorf("conformance: %s: drift %g: %w", sc.Name(), d, err)
		}
		ps := res.Snap.Pipeline
		snap.Aging.Points = append(snap.Aging.Points, AgingPointSnap{
			Drift:          d,
			Yield:          ps.Yield,
			ConfiguredFrac: ps.ConfiguredFrac,
			AvgIterations:  ps.AvgIterations,
		})
	}
	return snap, nil
}

// ReducedExpConfig is the experiment-harness configuration used by the
// conformance scenarios: the same code paths as the paper evaluation, with
// chip counts shrunk from the paper's 10 000 to seconds-scale.
func ReducedExpConfig(sc Scenario) exp.Config {
	cfg := exp.DefaultConfig()
	cfg.Seed = sc.Seed
	cfg.CostChips = 4
	cfg.YieldChips = 48
	cfg.Fig8Chips = 1
	cfg.QuantileChips = 200
	cfg.Core = sc.Config()
	return cfg
}

func runExp(ctx context.Context, sc Scenario) (*Snapshot, error) {
	p, err := sc.Profile()
	if err != nil {
		return nil, err
	}
	cfg := ReducedExpConfig(sc)
	snap := &Snapshot{Format: SnapshotFormat, Scenario: sc.meta()}
	switch sc.Kind {
	case KindTable1:
		row, err := exp.Table1(ctx, p, cfg)
		if err != nil {
			return nil, err
		}
		snap.Table1 = &Table1Snap{
			NPT: row.NPT, TA: row.TA, TV: row.TV, TPA: row.TPA, TPV: row.TPV,
			RA: row.RA, RV: row.RV, ConfiguredFraction: row.ConfiguredFraction,
		}
	case KindTable2:
		row, err := exp.Table2(ctx, p, cfg)
		if err != nil {
			return nil, err
		}
		snap.Table2 = &Table2Snap{
			T1: row.T1, T2: row.T2,
			T1YI: row.T1YI, T1YT: row.T1YT, T2YI: row.T2YI, T2YT: row.T2YT,
			T1NoBuffer: row.T1NoBuffer, T2NoBuffer: row.T2NoBuffer,
		}
	case KindFig7:
		row, err := exp.Fig7(ctx, p, cfg)
		if err != nil {
			return nil, err
		}
		snap.Fig7 = &Fig7Snap{NoBuffer: row.NoBuffer, Proposed: row.Proposed, Ideal: row.Ideal}
	case KindFig8:
		row, err := exp.Fig8(ctx, p, cfg)
		if err != nil {
			return nil, err
		}
		snap.Fig8 = &Fig8Snap{Pathwise: row.Pathwise, Multiplex: row.Multiplex, Proposed: row.Proposed}
	default:
		return nil, fmt.Errorf("conformance: unknown scenario kind %q", sc.Kind)
	}
	return snap, nil
}

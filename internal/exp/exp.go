// Package exp regenerates every table and figure of the paper's evaluation:
// Table 1 (test cost with delay alignment and statistical prediction),
// Table 2 (yield comparison at T1/T2), Figure 7 (yield with enlarged random
// variation) and Figure 8 (test comparison without statistical prediction).
// Each runner returns structured rows; the Format functions render them side
// by side with the paper's published numbers.
package exp

import (
	"context"
	"fmt"
	"time"

	"effitest/internal/baseline"
	"effitest/internal/circuit"
	"effitest/internal/core"
	"effitest/internal/pool"
	"effitest/internal/rng"
	"effitest/internal/tester"
	"effitest/internal/yield"
)

// Config parameterizes the experiment harness. Chip counts are deliberately
// configurable: the paper uses 10 000 simulated chips per circuit, which is
// reproducible here but slow in CI, so every count is the caller's choice.
type Config struct {
	Seed int64
	// Chips evaluated per circuit for Table 1 cost metrics.
	CostChips int
	// Chips evaluated per circuit for yield experiments (Table 2, Fig 7).
	YieldChips int
	// Chips for Figure 8 (expensive: all np paths are tested per chip).
	Fig8Chips int
	// QuantileChips used to estimate T1/T2 from the no-buffer critical
	// delay distribution.
	QuantileChips int
	// Fig8MaxBatch caps batch sizes in the no-prediction runs to bound the
	// alignment solve cost (0 = unlimited).
	Fig8MaxBatch int
	// PlanCache, when non-empty, routes every offline Prepare through the
	// content-addressed plan cache at this directory, so re-running tables
	// and figures skips the per-circuit offline flow.
	PlanCache string
	// Observer, when non-nil, receives flow events (batch start/end,
	// frequency steps, chip done) from the runners that execute the
	// EffiTest flow: Table 1, Table 2 and Figure 7. The Figure 8 baselines
	// measure through raw ATE sessions outside the flow and emit nothing
	// (efftables prints its own per-circuit stage lines instead). The
	// observer must be safe for concurrent use; it never changes the
	// numbers. The CLIs wire -progress to it.
	Observer core.Observer
	// Core is the EffiTest flow configuration.
	Core core.Config
}

// runOpts bundles the observer for the core flow calls.
func (cfg Config) runOpts() core.RunOptions {
	return core.RunOptions{Observer: cfg.Observer}
}

// preparePlan runs the offline flow for one circuit, going through the
// shared plan cache when one is configured.
func preparePlan(ctx context.Context, c *circuit.Circuit, cfg Config) (*core.Plan, error) {
	if cfg.PlanCache == "" {
		return core.PrepareCtx(ctx, c, cfg.Core)
	}
	pl, _, err := core.PrepareCached(ctx, cfg.PlanCache, c, cfg.Core)
	return pl, err
}

// DefaultConfig returns harness defaults sized for minutes-scale full runs.
func DefaultConfig() Config {
	return Config{
		Seed:          1,
		CostChips:     100,
		YieldChips:    400,
		Fig8Chips:     5,
		QuantileChips: 2000,
		Fig8MaxBatch:  24,
		Core:          core.DefaultConfig(),
	}
}

// chipSeed derives the evaluation-chip stream (distinct from hold-bound
// sampling inside core).
func chipSeed(cfg Config, name string) int64 {
	return rng.Seed(cfg.Seed, "eval-chips", name)
}

// Table1Row mirrors the paper's Table 1 columns.
type Table1Row struct {
	Circuit            string
	NS, NG, NB, NP     int
	NPT                int
	TA, TV             float64 // proposed: iterations per chip, per tested path
	TPA, TPV           float64 // path-wise: iterations per chip, per path
	RA, RV             float64 // reduction ratios (%)
	TP, TT, TS         float64 // runtimes in seconds (offline, align, config)
	ConfiguredFraction float64
}

// Table1 reproduces one row of Table 1 for the given benchmark profile.
// The per-chip cost loop (proposed flow plus the path-wise baseline) fans
// out across cfg.Core.Workers goroutines and is reduced in chip order, so
// the row does not depend on the worker count.
func Table1(ctx context.Context, p circuit.Profile, cfg Config) (Table1Row, error) {
	c, err := circuit.Generate(p, cfg.Seed)
	if err != nil {
		return Table1Row{}, err
	}
	plan, err := preparePlan(ctx, c, cfg)
	if err != nil {
		return Table1Row{}, err
	}
	td, err := yield.PeriodQuantileCtx(ctx, c, rng.Seed(cfg.Seed, "quantile", p.Name), cfg.QuantileChips, 0.8413, cfg.Core.Workers)
	if err != nil {
		return Table1Row{}, err
	}

	row := Table1Row{
		Circuit: p.Name,
		NS:      p.NumFF, NG: p.NumGates, NB: p.NumBuffers, NP: p.NumPaths,
		NPT: plan.NumTested(),
		TP:  plan.PrepDuration.Seconds(),
	}

	seed := chipSeed(cfg, p.Name)
	all := make([]int, c.NumPaths())
	for i := range all {
		all[i] = i
	}
	// One slot per chip: workers fill their own slot, the reduction below
	// runs in chip order.
	type chipCost struct {
		iters, pwIters int
		align, config  time.Duration
		configured     bool
	}
	costs := make([]chipCost, cfg.CostChips)
	err = pool.ForEach(ctx, cfg.CostChips, cfg.Core.Workers, func(i int) error {
		ch := tester.SampleChip(c, seed, i)
		out, err := plan.RunChip(ctx, ch, td, cfg.runOpts())
		if err != nil {
			return err
		}
		ateBase := tester.NewATE(ch, cfg.Core.TesterResolution)
		pwIters, _, err := baseline.Pathwise(ctx, ateBase, c, all, cfg.Core)
		if err != nil {
			return err
		}
		costs[i] = chipCost{
			iters:      out.Iterations,
			pwIters:    pwIters,
			align:      out.AlignDuration,
			config:     out.ConfigDuration,
			configured: out.Configured,
		}
		return nil
	})
	if err != nil {
		return row, err
	}
	var sumTA, sumTPA int
	var alignDur, cfgDur time.Duration
	var configured int
	for _, cc := range costs {
		sumTA += cc.iters
		sumTPA += cc.pwIters
		alignDur += cc.align
		cfgDur += cc.config
		if cc.configured {
			configured++
		}
	}
	n := float64(cfg.CostChips)
	row.TA = float64(sumTA) / n
	row.TV = row.TA / float64(row.NPT)
	row.TPA = float64(sumTPA) / n
	row.TPV = row.TPA / float64(row.NP)
	row.RA = 100 * (row.TPA - row.TA) / row.TPA
	row.RV = 100 * (row.TPV - row.TV) / row.TPV
	row.TT = alignDur.Seconds() / n
	row.TS = cfgDur.Seconds() / n
	row.ConfiguredFraction = float64(configured) / n
	return row, nil
}

// Table2Row mirrors the paper's Table 2 (yields at T1 and T2).
type Table2Row struct {
	Circuit                string
	T1, T2                 float64
	T1YI, T1YT, T1YR       float64 // percent
	T2YI, T2YT, T2YR       float64 // percent
	T1NoBuffer, T2NoBuffer float64 // percent (sanity: ≈50 and ≈84.13)
}

// Table2 reproduces one row of Table 2. The proposed-flow yield runs fan
// chips across cfg.Core.Workers goroutines.
func Table2(ctx context.Context, p circuit.Profile, cfg Config) (Table2Row, error) {
	c, err := circuit.Generate(p, cfg.Seed)
	if err != nil {
		return Table2Row{}, err
	}
	plan, err := preparePlan(ctx, c, cfg)
	if err != nil {
		return Table2Row{}, err
	}
	qseed := rng.Seed(cfg.Seed, "quantile", p.Name)
	t1, err := yield.PeriodQuantileCtx(ctx, c, qseed, cfg.QuantileChips, 0.50, cfg.Core.Workers)
	if err != nil {
		return Table2Row{}, err
	}
	t2, err := yield.PeriodQuantileCtx(ctx, c, qseed, cfg.QuantileChips, 0.8413, cfg.Core.Workers)
	if err != nil {
		return Table2Row{}, err
	}

	chips, err := tester.SampleChipRangeCtx(ctx, c, chipSeed(cfg, p.Name), 0, cfg.YieldChips, cfg.Core.Workers)
	if err != nil {
		return Table2Row{}, err
	}
	row := Table2Row{Circuit: p.Name, T1: t1, T2: t2}
	for i, T := range []float64{t1, t2} {
		yiFrac, err := yield.IdealCtx(ctx, c, chips, T, cfg.Core.Workers)
		if err != nil {
			return row, err
		}
		yi := 100 * yiFrac
		st, err := yield.ProposedOpts(ctx, plan, chips, T, cfg.runOpts())
		if err != nil {
			return row, err
		}
		yt := 100 * st.Yield
		nb := 100 * yield.NoBuffer(chips, T)
		if i == 0 {
			row.T1YI, row.T1YT, row.T1YR, row.T1NoBuffer = yi, yt, yi-yt, nb
		} else {
			row.T2YI, row.T2YT, row.T2YR, row.T2NoBuffer = yi, yt, yi-yt, nb
		}
	}
	return row, nil
}

// Fig7Row is one bar group of Figure 7: yields with standard deviations
// inflated by 10% (covariances unchanged).
type Fig7Row struct {
	Circuit  string
	NoBuffer float64 // percent
	Proposed float64
	Ideal    float64
}

// Fig7 reproduces one bar group of Figure 7. The clock period is calibrated
// on the *original* circuit (T2, 84.13% base yield); the inflated randomness
// then degrades all three cases, with the buffered ones staying far ahead.
func Fig7(ctx context.Context, p circuit.Profile, cfg Config) (Fig7Row, error) {
	c, err := circuit.Generate(p, cfg.Seed)
	if err != nil {
		return Fig7Row{}, err
	}
	t2, err := yield.PeriodQuantileCtx(ctx, c, rng.Seed(cfg.Seed, "quantile", p.Name), cfg.QuantileChips, 0.8413, cfg.Core.Workers)
	if err != nil {
		return Fig7Row{}, err
	}
	inflated, err := c.WithInflatedSigma(1.1)
	if err != nil {
		return Fig7Row{}, err
	}
	plan, err := preparePlan(ctx, inflated, cfg)
	if err != nil {
		return Fig7Row{}, err
	}
	chips, err := tester.SampleChipRangeCtx(ctx, inflated, chipSeed(cfg, p.Name+"-fig7"), 0, cfg.YieldChips, cfg.Core.Workers)
	if err != nil {
		return Fig7Row{}, err
	}
	st, err := yield.ProposedOpts(ctx, plan, chips, t2, cfg.runOpts())
	if err != nil {
		return Fig7Row{}, err
	}
	ideal, err := yield.IdealCtx(ctx, inflated, chips, t2, cfg.Core.Workers)
	if err != nil {
		return Fig7Row{}, err
	}
	return Fig7Row{
		Circuit:  p.Name,
		NoBuffer: 100 * yield.NoBuffer(chips, t2),
		Proposed: 100 * st.Yield,
		Ideal:    100 * ideal,
	}, nil
}

// Fig8Row is one bar group of Figure 8: test iterations per path without
// statistical prediction (all np paths measured).
type Fig8Row struct {
	Circuit   string
	Pathwise  float64 // iterations per path, path-wise stepping
	Multiplex float64 // multiplexing without alignment
	Proposed  float64 // multiplexing with delay alignment
}

// Fig8 reproduces one bar group of Figure 8. Chips run in parallel; each
// chip measures every path three ways on its own ATE sessions.
func Fig8(ctx context.Context, p circuit.Profile, cfg Config) (Fig8Row, error) {
	c, err := circuit.Generate(p, cfg.Seed)
	if err != nil {
		return Fig8Row{}, err
	}
	runCfg := cfg.Core
	runCfg.MaxBatch = cfg.Fig8MaxBatch
	hb, err := core.ComputeHoldBounds(c, runCfg)
	if err != nil {
		return Fig8Row{}, err
	}
	all := make([]int, c.NumPaths())
	for i := range all {
		all[i] = i
	}
	seed := chipSeed(cfg, p.Name+"-fig8")
	type chipIters struct{ pw, mux, aligned int }
	iters := make([]chipIters, cfg.Fig8Chips)
	err = pool.ForEach(ctx, cfg.Fig8Chips, runCfg.Workers, func(i int) error {
		ch := tester.SampleChip(c, seed, i)

		ate1 := tester.NewATE(ch, runCfg.TesterResolution)
		pw, _, err := baseline.Pathwise(ctx, ate1, c, all, runCfg)
		if err != nil {
			return err
		}

		ate2 := tester.NewATE(ch, runCfg.TesterResolution)
		mux, _, err := baseline.Multiplex(ctx, ate2, c, all, hb.Lambda, runCfg, false)
		if err != nil {
			return err
		}

		ate3 := tester.NewATE(ch, runCfg.TesterResolution)
		al, _, err := baseline.Multiplex(ctx, ate3, c, all, hb.Lambda, runCfg, true)
		if err != nil {
			return err
		}
		iters[i] = chipIters{pw: pw, mux: mux, aligned: al}
		return nil
	})
	if err != nil {
		return Fig8Row{}, err
	}
	var sumPW, sumMux, sumAligned int
	for _, it := range iters {
		sumPW += it.pw
		sumMux += it.mux
		sumAligned += it.aligned
	}
	denom := float64(cfg.Fig8Chips) * float64(c.NumPaths())
	return Fig8Row{
		Circuit:   p.Name,
		Pathwise:  float64(sumPW) / denom,
		Multiplex: float64(sumMux) / denom,
		Proposed:  float64(sumAligned) / denom,
	}, nil
}

// Profiles resolves a comma-separated circuit list ("all" or empty = every
// Table 1 circuit).
func Profiles(names []string) ([]circuit.Profile, error) {
	if len(names) == 0 {
		return circuit.Table1Profiles, nil
	}
	var out []circuit.Profile
	for _, n := range names {
		if n == "all" {
			return circuit.Table1Profiles, nil
		}
		p, ok := circuit.ProfileByName(n)
		if !ok {
			return nil, fmt.Errorf("exp: unknown circuit %q", n)
		}
		out = append(out, p)
	}
	return out, nil
}

// Package core implements EffiTest itself: statistical path selection
// (Procedure 1), path test multiplexing (§3.2), aligned delay test using the
// circuit's own tuning buffers (Procedure 2, Eqs. 7–14), conditional delay
// prediction (§3.4, Eqs. 4–5), hold-time tuning bounds (§3.5, Eqs. 19–21)
// and final buffer configuration (Eqs. 15–18), plus the end-to-end flow of
// the paper's Figure 4 with all of Table 1's cost metrics.
package core

import (
	"fmt"
	"math"
)

// AlignMode selects how the per-iteration alignment problem (Eqs. 7–14) is
// solved.
type AlignMode int

const (
	// AlignHeuristic uses weighted-median coordinate descent over the buffer
	// lattice: the default, fast enough for thousands of simulated chips.
	AlignHeuristic AlignMode = iota
	// AlignFastMILP solves an exact MILP in which η ≥ ±(T - center) replaces
	// the paper's big-M binaries. Minimizing a positively weighted sum makes
	// this relaxation exact, so the optimum equals AlignPaperILP's.
	AlignFastMILP
	// AlignPaperILP is the faithful big-M formulation of Eqs. (7)–(14),
	// with the (implied) case-selection constraint z⁺ + z⁻ = 1.
	AlignPaperILP
	// AlignOff freezes all buffers at zero during test; the clock period is
	// still chosen as the weighted median of the active delay-range centers.
	// This is Figure 8's "path multiplexing without delay alignment" case.
	AlignOff
)

// String names the mode.
func (m AlignMode) String() string {
	switch m {
	case AlignHeuristic:
		return "heuristic"
	case AlignFastMILP:
		return "fast-milp"
	case AlignPaperILP:
		return "paper-ilp"
	case AlignOff:
		return "off"
	default:
		return "unknown"
	}
}

// Config carries all EffiTest flow parameters. DefaultConfig documents the
// paper-aligned defaults.
type Config struct {
	// Seed drives every random stream (hold sampling, tie-breaking).
	Seed int64

	// Eps is the delay-range termination threshold ε of Procedure 2 (ns):
	// a path is resolved when u-l < Eps.
	Eps float64

	// CorrStart/CorrStep/CorrFloor drive Procedure 1's correlation-threshold
	// schedule (0.95, 0.05, and a floor below which remaining paths become
	// singleton groups).
	CorrStart, CorrStep, CorrFloor float64

	// PCKaiser sets the principal-component count per group: components with
	// eigenvalue > PCKaiser × (mean eigenvalue) are counted as shared PCs.
	PCKaiser float64
	// MaxGroupSize caps a correlation group, and with it the order of the
	// covariance Procedure 1 reduces (and that its Jacobi fallback
	// decomposes in full).
	MaxGroupSize int

	// FillSlots enables §3.2's empty-slot filling with high-variance paths.
	FillSlots bool
	// FillSigmaFrac restricts slot filling to paths whose conditional sigma
	// exceeds this fraction of their prior sigma (only badly predicted paths
	// are worth a free measurement).
	FillSigmaFrac float64
	// MaxBatch caps a batch's size (0 = unlimited).
	MaxBatch int

	// AlignMode selects the alignment solver (see the mode type).
	AlignMode AlignMode

	// WeightK0 and WeightKd are the center-priority weights of §3.3
	// (k0 ≫ kd).
	WeightK0, WeightKd float64

	// HoldYield is Y in Eq. (20) (paper: 0.99); HoldSamples is the
	// Monte-Carlo sample count M of §3.5.
	HoldYield   float64
	HoldSamples int

	// TesterResolution is the ATE clock-period granularity (ns).
	TesterResolution float64

	// MaxIterPerPath bounds test iterations per batch as
	// MaxIterPerPath × batch size (safety net against pathological cases).
	MaxIterPerPath int

	// Workers bounds the goroutines used when many chips are executed
	// together (Plan.RunChips and everything built on it). 0 means one
	// worker per logical CPU; 1 forces sequential execution. Results are
	// bit-identical at any worker count — chips never share mutable state
	// and aggregation happens in chip order.
	Workers int
}

// DefaultConfig returns the paper-aligned defaults.
func DefaultConfig() Config {
	return Config{
		Seed:             1,
		Eps:              0.002, // 2 ps: ≈ 8–9 binary-search steps over a ±3σ window
		CorrStart:        0.95,
		CorrStep:         0.05,
		CorrFloor:        0.45,
		PCKaiser:         1.0,
		MaxGroupSize:     600,
		FillSlots:        true,
		FillSigmaFrac:    0,
		MaxBatch:         16,
		AlignMode:        AlignHeuristic,
		WeightK0:         1000,
		WeightKd:         1,
		HoldYield:        0.99,
		HoldSamples:      500,
		TesterResolution: 1e-4, // 0.1 ps clock generator granularity
		MaxIterPerPath:   64,
	}
}

// Validate rejects configurations the flow cannot run with. Prepare (and
// therefore the engine constructor) calls it, so an invalid option surfaces
// as a construction error instead of a hang or a panic deep in the online
// flow (e.g. Eps ≤ 0 would never let a batch terminate).
func (cfg Config) Validate() error {
	check := func(ok bool, field string, v any, want string) error {
		if ok {
			return nil
		}
		return fmt.Errorf("core: invalid config: %s = %v, want %s", field, v, want)
	}
	finitePos := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) && v > 0 }
	for _, err := range []error{
		check(finitePos(cfg.Eps), "Eps", cfg.Eps, "a positive delay threshold in ns"),
		check(cfg.Workers >= 0, "Workers", cfg.Workers, "≥ 0 (0 = one per CPU)"),
		check(cfg.MaxBatch >= 0, "MaxBatch", cfg.MaxBatch, "≥ 0 (0 = unlimited)"),
		check(cfg.MaxGroupSize >= 0, "MaxGroupSize", cfg.MaxGroupSize, "≥ 0 (0 = uncapped)"),
		check(cfg.MaxIterPerPath >= 0, "MaxIterPerPath", cfg.MaxIterPerPath, "≥ 0 (0 = default cap)"),
		check(cfg.HoldSamples > 0, "HoldSamples", cfg.HoldSamples, "a positive Monte-Carlo sample count"),
		check(!math.IsNaN(cfg.HoldYield) && cfg.HoldYield > 0 && cfg.HoldYield <= 1,
			"HoldYield", cfg.HoldYield, "a target in (0, 1]"),
		check(finitePos(cfg.TesterResolution), "TesterResolution", cfg.TesterResolution, "a positive period granularity in ns"),
		check(finitePos(cfg.WeightK0) && finitePos(cfg.WeightKd), "WeightK0/WeightKd",
			[2]float64{cfg.WeightK0, cfg.WeightKd}, "positive §3.3 priority weights"),
	} {
		if err != nil {
			return err
		}
	}
	return nil
}

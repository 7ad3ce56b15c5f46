// Package workload defines the campaign workload types that run over the
// EffiTest engine, and the small exactly-mergeable aggregates they report.
//
// The engine itself knows one program: tune a chip's buffers and predict
// pass/fail at the target period. The sister TUM papers describe campaign
// types that are programs *over* that flow — post-silicon clock binning
// (classify each chip into a frequency bin from its post-tuning achievable
// period) and aging drift sweeps (re-run a population under deterministic
// delay-drift schedules and report yield versus drift). This package names
// those workloads, implements the drift transform (ApplyDrift) and their
// mergeable aggregates (BinAgg), and validates their parameters, so the
// fleet layer, the manifest expander, and the conformance matrix all agree
// on what a workload means. The binning quantity, a chip's achieved period,
// is computed once per configured chip by the flow itself
// (ChipOutcome.AchievedPeriod).
//
// Like yield.Agg, every aggregate here is built from exact integer counts,
// so a sharded fleet campaign that observes each chip as it arrives folds
// bit-identically to a single-process run regardless of shard boundaries
// and arrival order.
package workload

import "fmt"

// Workload types. The empty string is accepted everywhere and means
// TypeEffiTest, so existing campaign requests keep their meaning.
const (
	// TypeEffiTest is the standard tune-and-predict flow of the source
	// paper: configure every chip at the target period and report yield.
	TypeEffiTest = "effitest"
	// TypeClockBinning classifies each chip into a frequency bin from its
	// post-tuning achievable period (the clock-binning sister paper). A
	// campaign of this type carries ascending period bin edges and reports
	// a per-bin chip histogram next to the usual yield aggregate.
	TypeClockBinning = "clock-binning"
	// TypeAgingDrift re-runs the population with every chip's realized
	// delays scaled by (1+drift), modeling aged silicon (the criticality
	// sister paper). A sweep is one campaign per drift value; the suite
	// report assembles the yield-vs-drift curve from the exact aggregates.
	TypeAgingDrift = "aging-drift"
)

// Types returns the registered workload type names in canonical order.
func Types() []string {
	return []string{TypeEffiTest, TypeClockBinning, TypeAgingDrift}
}

// Valid reports whether name is a registered workload type. The empty
// string is valid and means TypeEffiTest.
func Valid(name string) bool {
	switch name {
	case "", TypeEffiTest, TypeClockBinning, TypeAgingDrift:
		return true
	}
	return false
}

// Canonical maps a wire workload name to its canonical form: the empty
// string becomes TypeEffiTest, everything else is returned unchanged.
func Canonical(name string) string {
	if name == "" {
		return TypeEffiTest
	}
	return name
}

// Check validates a (workload, bin edges, drift) triple as it appears on a
// campaign spec. It is shared by the manifest validator, Manager.Submit and
// the HTTP submit handler so every entry point rejects the same inputs.
func Check(name string, edges []float64, drift float64) error {
	if !Valid(name) {
		return fmt.Errorf("unknown workload %q (have %v)", name, Types())
	}
	c := Canonical(name)
	if c == TypeClockBinning {
		if err := ValidateEdges(edges); err != nil {
			return err
		}
	} else if len(edges) > 0 {
		return fmt.Errorf("bin edges are only valid for the %s workload", TypeClockBinning)
	}
	if c == TypeAgingDrift {
		if err := ValidateDrift(drift); err != nil {
			return err
		}
	} else if drift != 0 {
		return fmt.Errorf("drift is only valid for the %s workload", TypeAgingDrift)
	}
	return nil
}

package yield

import (
	"time"

	"effitest/internal/core"
)

// Agg is a streaming aggregator over chip outcomes: every field is an exact
// sum (integers and durations, never floating-point partials), so observing
// a population's outcomes in any order yields exactly the aggregate a
// single sequential pass would have produced — the property fleet campaigns
// rely on when chips of one population complete on different workers,
// processes or shards.
//
// The zero value is ready to use. Agg is not safe for concurrent use;
// serialize Observe calls, as the campaign scheduler and the shard
// coordinator do.
type Agg struct {
	Chips      int   // outcomes observed
	Passed     int   // final pass/fail test passed
	Configured int   // a feasible buffer configuration was found
	Iterations int   // total tester frequency steps
	ScanBits   int64 // total configuration bits shifted

	AlignDuration  time.Duration // summed Tt component
	ConfigDuration time.Duration // summed Ts component
}

// Observe folds one chip outcome into the aggregate.
func (a *Agg) Observe(out *core.ChipOutcome) {
	a.Chips++
	a.Iterations += out.Iterations
	a.ScanBits += out.ScanBits
	a.AlignDuration += out.AlignDuration
	a.ConfigDuration += out.ConfigDuration
	if out.Configured {
		a.Configured++
	}
	if out.Passed {
		a.Passed++
	}
}

// Stats finalizes the aggregate into the per-chip averages of ProposedStats.
// With zero chips observed it returns the zero stats.
func (a Agg) Stats() ProposedStats {
	var st ProposedStats
	if a.Chips == 0 {
		return st
	}
	n := float64(a.Chips)
	st.Yield = float64(a.Passed) / n
	st.AvgIterations = float64(a.Iterations) / n
	st.AvgScanBits = float64(a.ScanBits) / n
	st.AvgAlignTime = time.Duration(float64(a.AlignDuration) / n)
	st.AvgConfigTime = time.Duration(float64(a.ConfigDuration) / n)
	st.ConfiguredFrac = float64(a.Configured) / n
	return st
}

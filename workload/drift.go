package workload

import (
	"fmt"
	"math"
	"slices"

	"effitest/internal/tester"
)

// MaxDrift bounds the aging sweep: a drift of 1.0 doubles every delay,
// which is already far beyond any aging model worth simulating.
const MaxDrift = 1.0

// ValidateDrift checks one aging-drift sweep point. Drift scales realized
// delays by (1+d), so it must be finite and keep delays positive; negative
// drift (modeling e.g. burn-in speedup) is allowed down to -0.5.
func ValidateDrift(d float64) error {
	if math.IsNaN(d) || math.IsInf(d, 0) {
		return fmt.Errorf("drift %v is not finite", d)
	}
	if d < -0.5 || d > MaxDrift {
		return fmt.Errorf("drift %v outside [-0.5, %v]", d, MaxDrift)
	}
	return nil
}

// ApplyDrift returns a copy of the chip aged by drift d: every realized
// path delay (max and min) scaled by (1+d). Scaling both bounds by the
// same factor preserves the sampler's TrueMin <= TrueMax invariant, and
// the transform is a pure function of the input chip, so drifted
// populations stay deterministic in (seed, index, d) and identical across
// shard boundaries. The input chip is not modified.
func ApplyDrift(ch *tester.Chip, d float64) *tester.Chip {
	if d == 0 {
		return ch
	}
	aged := &tester.Chip{
		Circuit: ch.Circuit,
		Index:   ch.Index,
		TrueMax: slices.Clone(ch.TrueMax),
		TrueMin: slices.Clone(ch.TrueMin),
	}
	s := 1 + d
	for i := range aged.TrueMax {
		aged.TrueMax[i] *= s
		aged.TrueMin[i] *= s
	}
	return aged
}

// Package tester simulates the post-silicon test environment: manufactured
// chip instances (per-die realizations of the statistical delay model), the
// scan chain that shifts buffer configuration bits in with test vectors, and
// the frequency-stepping oracle of an ATE. The tester's iteration counter is
// the paper's cost metric (columns ta / t′a of Table 1).
package tester

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"effitest/internal/circuit"
	"effitest/internal/rng"
	"effitest/internal/skew"
)

// Chip is one manufactured die: exact realized path delays, unknown to the
// test algorithms except through frequency-step pass/fail results.
type Chip struct {
	Circuit *circuit.Circuit
	Index   int
	TrueMax []float64 // realized max delay per path (setup folded)
	TrueMin []float64 // realized min delay per path
}

// SampleChip manufactures chip `index` from the circuit's variation model,
// deterministically in (seed, index): the one-wide call of the Sampler
// kernel.
func SampleChip(c *circuit.Circuit, seed int64, index int) *Chip {
	s := acquire(c, seed)
	defer release(s)
	s.draw(index, 1, true)
	return s.chip(0, index)
}

// SampleChips manufactures n chips, using every CPU. Chip i depends only on
// (seed, i), so the result is identical to a sequential loop.
func SampleChips(c *circuit.Circuit, seed int64, n int) []*Chip {
	out, _ := SampleChipRangeCtx(context.Background(), c, seed, 0, n, 0)
	return out
}

// SampleChipRangeCtx manufactures the n chips with manufacturing indices
// [first, first+n) of the (seed-keyed) chip population on a bounded worker
// pool (workers as in core.Config.Workers: 0 = all CPUs) with
// cancellation. Because chip i depends only on (seed, i), the returned
// chips are exactly the corresponding slice of the population at any
// worker count — the property sharded campaign execution relies on: a
// shard samples only its own index range yet runs the identical chips.
func SampleChipRangeCtx(ctx context.Context, c *circuit.Circuit, seed int64, first, n, workers int) ([]*Chip, error) {
	if first < 0 || n < 0 {
		return nil, fmt.Errorf("tester: chip range start %d and count %d must be non-negative", first, n)
	}
	out := make([]*Chip, n)
	err := ForEachBlock(ctx, c, seed, first, n, workers, true, func(s *Sampler, start, count int) {
		for w := range count {
			out[start+w] = s.chip(w, first+start+w)
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Stats is a race-free aggregate of per-session ATE accounting. Workers run
// each chip on its own ATE; the reducer folds the per-chip counters into a
// Stats in chip order, so totals are deterministic.
type Stats struct {
	Iterations int
	ScanBits   int64
}

// Add folds one session's accounting into the aggregate.
func (s *Stats) Add(iterations int, scanBits int64) {
	s.Iterations += iterations
	s.ScanBits += scanBits
}

// SetupSlack returns Td - (D + x_i - x_j) for path p under buffer values x;
// non-negative means the setup constraint holds.
func (ch *Chip) SetupSlack(p int, Td float64, x []float64) float64 {
	pt := &ch.Circuit.Paths[p]
	return Td - (ch.TrueMax[p] + x[pt.From] - x[pt.To])
}

// HoldSlack returns (x_i - x_j) - (h - dmin) for path p; non-negative means
// the hold constraint holds.
func (ch *Chip) HoldSlack(p int, x []float64) float64 {
	pt := &ch.Circuit.Paths[p]
	return (x[pt.From] - x[pt.To]) - (ch.Circuit.HoldTime - ch.TrueMin[p])
}

// PassesAt reports whether every path meets setup at period Td under buffer
// values x.
func (ch *Chip) PassesAt(Td float64, x []float64) bool {
	for p := range ch.Circuit.Paths {
		if ch.SetupSlack(p, Td, x) < 0 {
			return false
		}
	}
	return true
}

// HoldOK reports whether every path meets hold under buffer values x.
func (ch *Chip) HoldOK(x []float64) bool {
	for p := range ch.Circuit.Paths {
		if ch.HoldSlack(p, x) < 0 {
			return false
		}
	}
	return true
}

// AchievedPeriod returns the smallest clock period at which the chip meets
// every setup constraint under the configured buffer vector x:
//
//	max over paths p of  TrueMax[p] + x[From(p)] - x[To(p)]
//
// This is the chip's post-tuning achievable period, the quantity clock
// binning classifies on. Hold constraints are period-independent and so do
// not enter; a chip whose configuration violates hold is reported
// unconfigured by the flow and lands in the unbinned bucket upstream.
func (ch *Chip) AchievedPeriod(x []float64) float64 {
	achieved := 0.0
	for p := range ch.Circuit.Paths {
		pt := &ch.Circuit.Paths[p]
		d := ch.TrueMax[p] + x[pt.From] - x[pt.To]
		if d > achieved {
			achieved = d
		}
	}
	return achieved
}

// CriticalDelay returns the largest realized path delay (the chip's minimum
// working period without tuning).
func (ch *Chip) CriticalDelay() float64 { return CriticalDelay(ch.TrueMax) }

// CriticalDelay returns the largest of a chip's realized max delays, or 0
// when there are none.
func CriticalDelay(maxDelays []float64) float64 {
	crit := 0.0
	for _, d := range maxDelays {
		if d > crit {
			crit = d
		}
	}
	return crit
}

// Arcs returns the chip's exact timing arcs (for ideal-measurement
// configuration studies): Setup is the realized max delay, Hold the folded
// hold bound h - dmin.
func (ch *Chip) Arcs() []skew.Timing {
	arcs := make([]skew.Timing, len(ch.Circuit.Paths))
	for i := range ch.Circuit.Paths {
		p := &ch.Circuit.Paths[i]
		arcs[i] = skew.Timing{
			From:  p.From,
			To:    p.To,
			Setup: ch.TrueMax[i],
			Hold:  ch.Circuit.HoldTime - ch.TrueMin[i],
		}
	}
	return arcs
}

// ATE is a simulated automatic test equipment session on one chip. It
// accounts every frequency-step iteration and every scan-chain shift, and
// applies buffer settings as the hardware realizes them: quantized to the
// circuit's buffer lattice.
type ATE struct {
	Chip *Chip
	// Resolution is the clock-generator period granularity; applied periods
	// are rounded up to the grid (conservative: never tests faster than
	// asked). Zero means ideal.
	Resolution float64
	// Jitter is the standard deviation of per-application clock-edge noise
	// in ns (0 = noiseless). A noisy step compares the path delay against
	// T + jitter-draw, modelling the tester's edge placement accuracy.
	Jitter float64

	Iterations int   // frequency steps applied
	ScanBits   int64 // configuration bits shifted

	jitterStream *rand.Rand
	pass         []bool // Step's result, reused per step as Session permits
}

// NewATE opens a test session.
func NewATE(ch *Chip, resolution float64) *ATE {
	return &ATE{Chip: ch, Resolution: resolution}
}

// NewNoisyATE opens a test session with clock-edge jitter; the noise stream
// is deterministic in (chip, seed).
func NewNoisyATE(ch *Chip, resolution, jitter float64, seed int64) *ATE {
	return &ATE{
		Chip:         ch,
		Resolution:   resolution,
		Jitter:       jitter,
		jitterStream: rng.NewIndexed(seed, ch.Index, "ate-jitter", ch.Circuit.Name),
	}
}

// AppliedPeriod returns the actual period the clock generator produces for a
// requested period.
func (a *ATE) AppliedPeriod(T float64) float64 {
	if a.Resolution <= 0 {
		return T
	}
	return math.Ceil(T/a.Resolution-1e-12) * a.Resolution
}

// Step applies one frequency-stepping iteration: scan in the buffer
// configuration x (full per-FF vector) and the batch's test vectors, clock
// at period T, and report per-path pass (true = data latched correctly, i.e.
// setup met). The applied (resolution-rounded) period is returned so callers
// update bounds consistently with what the hardware actually did. The pass
// slice is reused by the next Step, as the Session contract allows.
//
// Each buffer realizes the nearest point of the circuit's lattice (the one
// alignment and configuration solve on), so off-lattice requests see
// exactly the hardware's quantization. Only the endpoints of the batch's
// paths are realized: no other buffer enters a pass bit.
func (a *ATE) Step(T float64, x []float64, batch []int) (applied float64, pass []bool, err error) {
	c := a.Chip.Circuit
	if len(x) != c.NumFF {
		return 0, nil, fmt.Errorf("tester: buffer vector length %d != %d FFs", len(x), c.NumFF)
	}
	a.ScanBits += int64(c.ScanBits()) // the whole configuration is shifted in
	applied = a.AppliedPeriod(T)
	a.Iterations++
	if cap(a.pass) < len(batch) {
		a.pass = make([]bool, len(batch))
	}
	pass = a.pass[:len(batch)]
	for i, p := range batch {
		if p < 0 || p >= len(c.Paths) {
			return 0, nil, fmt.Errorf("tester: path %d out of range", p)
		}
		threshold := applied
		if a.Jitter > 0 && a.jitterStream != nil {
			threshold += float64(a.Jitter * a.jitterStream.NormFloat64())
		}
		pt := &c.Paths[p]
		// Chip.SetupSlack's expression over the realized endpoint values.
		pass[i] = threshold-(a.Chip.TrueMax[p]+realize(c, pt.From, x)-realize(c, pt.To, x)) >= 0
	}
	return applied, pass, nil
}

// realize returns the value FF f's buffer takes when the scan chain shifts
// in x[f]: the nearest point of its lattice when f is buffered, x[f] (the
// reference clock) otherwise.
func realize(c *circuit.Circuit, f int, x []float64) float64 {
	if c.Buf.Buffered[f] {
		return c.Buf.Quantize(f, x[f])
	}
	return x[f]
}

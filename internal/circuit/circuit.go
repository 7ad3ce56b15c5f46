// Package circuit models the timing view EffiTest consumes: flip-flops,
// logic gates placed on the variation grid, combinational timing paths with
// statistical max/min delays in canonical form, and post-silicon tunable
// buffer placement. It also provides a seeded benchmark generator that
// reproduces the published per-circuit statistics of the paper's Table 1
// (flip-flop/gate/buffer/path counts for the ISCAS89 and TAU13 circuits) —
// see DESIGN.md for why this substitution preserves the algorithms' inputs.
package circuit

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"effitest/internal/skew"
	"effitest/internal/ssta"
	"effitest/internal/variation"
)

// Gate is one logic gate: a nominal delay at a grid location.
type Gate struct {
	ID           int
	CellX, CellY int
	Nominal      float64 // ns
}

// Path is a combinational timing path between two flip-flops. Max is the
// canonical max-delay D̄ij with the sink setup time folded in (the paper's
// Dij); Min is the canonical min-delay d_ij used for hold analysis. MinScale
// records the generator's short-path scale factor so netlists round-trip.
type Path struct {
	ID       int
	From, To int
	Gates    []int
	Cluster  int
	MinScale float64
	Max      ssta.Canon
	Min      ssta.Canon
}

// Circuit is a complete benchmark instance. It must not be mutated once it
// has been handed to Fingerprint, Prepare, New or the fleet: its identity,
// covariance and loading runs are memoised on first use, and plans, caches
// and registries key on it. The memo belongs to the instance: a value copy
// shares none of it and derives its own state on every call.
type Circuit struct {
	Name     string
	NumFF    int
	Gates    []Gate
	Paths    []Path
	Buffered []int // flip-flop ids carrying tuning buffers, ascending

	// Buf is the one description of the buffers' value space: each
	// buffered FF's range and the lattice of Buf.Steps+1 values every
	// buffer shares. The solvers configure on it and the tester realizes
	// it, so a configured value is exactly the value applied.
	Buf skew.Buffers

	// Exclusive lists path-id pairs that ATPG cannot sensitize together
	// (logic masking); they must not share a test batch.
	Exclusive [][2]int

	// TNominal is the nominal (pre-tuning) critical-path delay estimate used
	// to size buffer ranges (τ = TNominal/8 per the paper's setup).
	TNominal float64
	// SetupTime and HoldTime are the uniform FF setup/hold times folded into
	// the path delay bounds.
	SetupTime, HoldTime float64

	// Model is the process-variation model whose factor basis all canonical
	// forms share.
	Model *variation.Model

	memo *memo // derived state, built on first use
}

// memo holds what a circuit derives on first use, each part built once
// under its own sync.Once: concurrent users wait only for the circuit they
// share, and a hit costs an atomic load. It sits behind a pointer so that
// copying a Circuit copies no lock, and it serves only its owner, so a
// copy never reads state derived from the original's paths.
type memo struct {
	owner *Circuit

	covOnce   sync.Once
	cov, corr [][]float64

	runsOnce sync.Once
	runs     []PathRuns

	fpOnce sync.Once
	fp     string
	fpErr  error
}

// derived returns the circuit's memo. A circuit that Generate,
// ParseNetlist or WithInflatedSigma did not make, a value copy included,
// has none of its own and derives its state afresh on every call.
func (c *Circuit) derived() *memo {
	if c.memo != nil && c.memo.owner == c {
		return c.memo
	}
	return &memo{owner: c}
}

// Run is a half-open range [Lo, Hi) of factor indices.
type Run struct{ Lo, Hi int }

// PathRuns lists the maximal runs of nonzero factor loadings of one path's
// max- and min-delay forms, in ascending order.
type PathRuns struct{ Max, Min []Run }

// NumPaths returns the number of timing paths.
func (c *Circuit) NumPaths() int { return len(c.Paths) }

// NumGates returns the number of gates.
func (c *Circuit) NumGates() int { return len(c.Gates) }

// NumBuffers returns the number of tunable buffers.
func (c *Circuit) NumBuffers() int { return len(c.Buffered) }

// ScanBits returns the length of the buffer scan chain: one configuration
// register of ⌈log2(Steps+1)⌉ bits per buffer (the paper's Figure 1).
func (c *Circuit) ScanBits() int { return len(c.Buffered) * bits.Len(uint(c.Buf.Steps)) }

// MaxCanons returns the max-delay canonical forms of all paths, in path
// order (shared backing with the circuit; callers must not modify).
func (c *Circuit) MaxCanons() []ssta.Canon {
	out := make([]ssta.Canon, len(c.Paths))
	for i := range c.Paths {
		out[i] = c.Paths[i].Max
	}
	return out
}

// Cov returns the covariance of two paths' max delays (including private
// variance on the diagonal).
func (c *Circuit) Cov(i, j int) float64 {
	v := ssta.Cov(c.Paths[i].Max, c.Paths[j].Max)
	if i == j {
		v += c.Paths[i].Max.Rand * c.Paths[i].Max.Rand
	}
	return v
}

// CovMatrix returns the full path-delay covariance matrix as row slices,
// computed once (buildCov) and cached; callers must not modify it.
func (c *Circuit) CovMatrix() [][]float64 {
	cov, _ := c.covCorr()
	return cov
}

// CorrMatrix returns the full path-delay correlation matrix, cached.
func (c *Circuit) CorrMatrix() [][]float64 {
	_, corr := c.covCorr()
	return corr
}

func (c *Circuit) covCorr() (cov, corr [][]float64) {
	m := c.derived()
	m.covOnce.Do(func() { m.cov, m.corr = buildCov(c.Paths, c.LoadingRuns()) })
	return m.cov, m.corr
}

// LoadingRuns returns, per path, where its factor loadings are nonzero,
// computed once and cached (callers must not modify). The grid model fills
// only the cells up to a gate's own in each parameter block, so a path's
// loadings are a few nonzero runs separated by exact zeros; a dot product
// that walks only the runs skips nothing but ±0 terms.
func (c *Circuit) LoadingRuns() []PathRuns {
	m := c.derived()
	m.runsOnce.Do(func() {
		m.runs = make([]PathRuns, len(c.Paths))
		for i := range c.Paths {
			p := &c.Paths[i]
			m.runs[i] = PathRuns{Max: nonzeroRuns(p.Max.Coef), Min: nonzeroRuns(p.Min.Coef)}
		}
	})
	return m.runs
}

// nonzeroRuns returns the maximal runs of nonzero entries of coef. −0.0
// counts as zero.
func nonzeroRuns(coef []float64) (runs []Run) {
	for k := 0; k < len(coef); k++ {
		if coef[k] == 0 {
			continue
		}
		lo := k
		for k < len(coef) && coef[k] != 0 {
			k++
		}
		runs = append(runs, Run{Lo: lo, Hi: k})
	}
	return runs
}

// IsBuffered reports whether flip-flop ff carries a tuning buffer.
func (c *Circuit) IsBuffered(ff int) bool {
	return ff >= 0 && ff < c.NumFF && c.Buf.Buffered[ff]
}

// WithInflatedSigma returns a copy of the circuit in which every path's
// max-delay standard deviation is inflated by the given factor without
// changing any path-to-path covariance — the paper's Figure 7 experiment
// ("we manually increased the standard deviations of all delays by 10%.
// Since we did not change the covariance matrix ... this change led to a
// large increase in the purely random parts"). Only the private Rand terms
// grow. The netlist does not carry Rand, so the copy's Fingerprint derives
// from the base's and the factor (and fails where the base's does).
func (c *Circuit) WithInflatedSigma(factor float64) (*Circuit, error) {
	if factor < 1 {
		return nil, errors.New("circuit: inflation factor must be >= 1")
	}
	base, fpErr := c.Fingerprint()
	out := *c
	out.memo = &memo{owner: &out}
	if fpErr == nil {
		out.memo.fpOnce.Do(func() { out.memo.fp = inflatedFingerprint(base, factor) })
	}
	out.Paths = make([]Path, len(c.Paths))
	copy(out.Paths, c.Paths)
	for i := range out.Paths {
		p := &out.Paths[i]
		v := p.Max.Var()
		target := factor * factor * v
		corrPart := v - p.Max.Rand*p.Max.Rand
		newRand := math.Sqrt(target - corrPart)
		mx := p.Max
		p.Max = ssta.Canon{Mean: mx.Mean, Coef: mx.Coef, Rand: newRand}
	}
	return &out, nil
}

// pathCanon sums the canonical forms of the gates ids names, in path
// order: the path's max delay before the sink setup time is folded in. The
// first gate's fresh form is the accumulator.
func pathCanon(m *variation.Model, gates []Gate, ids []int) ssta.Canon {
	var sum ssta.Canon
	for k, id := range ids {
		g := gates[id]
		gc := m.GateCanon(g.Nominal, g.CellX, g.CellY)
		if k == 0 {
			sum = gc
		} else {
			sum.Add(gc)
		}
	}
	return sum
}

// packLoadings moves every path's factor loadings into one backing array,
// the Max and Min rows in path order. Built path by path, the rows sit
// among the gate forms' garbage and keep mostly empty heap spans alive
// for as long as the circuit lives.
func (c *Circuit) packLoadings() {
	n := 0
	for i := range c.Paths {
		n += len(c.Paths[i].Max.Coef) + len(c.Paths[i].Min.Coef)
	}
	all := make([]float64, 0, n)
	for i := range c.Paths {
		p := &c.Paths[i]
		for _, row := range []*[]float64{&p.Max.Coef, &p.Min.Coef} {
			at := len(all)
			all = append(all, *row...)
			*row = all[at:len(all):len(all)]
		}
	}
}

// Validate checks structural invariants; generators and parsers run it
// before returning a circuit.
func (c *Circuit) Validate() error {
	if c.NumFF <= 0 {
		return errors.New("circuit: no flip-flops")
	}
	if len(c.Buf.Buffered) != c.NumFF || len(c.Buf.Lo) != c.NumFF || len(c.Buf.Hi) != c.NumFF {
		return fmt.Errorf("circuit: buffer mask/range lengths %d/%d/%d != %d FFs",
			len(c.Buf.Buffered), len(c.Buf.Lo), len(c.Buf.Hi), c.NumFF)
	}
	if c.Buf.Steps < 1 {
		return fmt.Errorf("circuit: buffer lattice has %d steps, want at least 1", c.Buf.Steps)
	}
	seen := make(map[int]bool, len(c.Buffered))
	for _, b := range c.Buffered {
		if b < 0 || b >= c.NumFF {
			return fmt.Errorf("circuit: buffered FF %d out of range", b)
		}
		if seen[b] {
			return fmt.Errorf("circuit: duplicate buffer at FF %d", b)
		}
		seen[b] = true
		if !c.Buf.Buffered[b] {
			return fmt.Errorf("circuit: FF %d listed buffered but mask disagrees", b)
		}
	}
	for f, buffered := range c.Buf.Buffered {
		if buffered && !seen[f] {
			return fmt.Errorf("circuit: FF %d masked buffered but not listed", f)
		}
	}
	// One lattice describes every buffer (skew.NewLattice): with a shared
	// step count the buffers must also share their range width, or the
	// solvers would return values off the wider buffers' own lattices.
	if len(c.Buffered) > 0 {
		f0 := c.Buffered[0]
		w0 := c.Buf.Hi[f0] - c.Buf.Lo[f0]
		for _, f := range c.Buffered[1:] {
			if w := c.Buf.Hi[f] - c.Buf.Lo[f]; !(math.Abs(w-w0) <= 1e-12) {
				return fmt.Errorf("circuit: buffer at FF %d spans %g but buffer at FF %d spans %g; every buffer must share one range width", f, w, f0, w0)
			}
		}
	}
	for i, g := range c.Gates {
		if g.ID != i {
			return fmt.Errorf("circuit: gate %d has id %d", i, g.ID)
		}
		if g.Nominal <= 0 {
			return fmt.Errorf("circuit: gate %d has non-positive delay", i)
		}
	}
	basis := 0
	if c.Model != nil {
		basis = c.Model.BasisSize()
	}
	for i, p := range c.Paths {
		if p.ID != i {
			return fmt.Errorf("circuit: path %d has id %d", i, p.ID)
		}
		if p.From == p.To {
			return fmt.Errorf("circuit: path %d is a self-loop at FF %d", i, p.From)
		}
		if p.From < 0 || p.From >= c.NumFF || p.To < 0 || p.To >= c.NumFF {
			return fmt.Errorf("circuit: path %d endpoints out of range", i)
		}
		if !c.IsBuffered(p.From) && !c.IsBuffered(p.To) {
			return fmt.Errorf("circuit: path %d touches no buffer; its delay is not required", i)
		}
		for _, g := range p.Gates {
			if g < 0 || g >= len(c.Gates) {
				return fmt.Errorf("circuit: path %d references gate %d", i, g)
			}
		}
		if basis > 0 && len(p.Max.Coef) != basis {
			return fmt.Errorf("circuit: path %d canonical basis %d != model %d", i, len(p.Max.Coef), basis)
		}
		if p.Max.Mean <= 0 {
			return fmt.Errorf("circuit: path %d has non-positive mean delay", i)
		}
		if p.Min.Mean > p.Max.Mean {
			return fmt.Errorf("circuit: path %d min delay exceeds max", i)
		}
	}
	for _, e := range c.Exclusive {
		if e[0] < 0 || e[0] >= len(c.Paths) || e[1] < 0 || e[1] >= len(c.Paths) || e[0] == e[1] {
			return fmt.Errorf("circuit: bad exclusive pair %v", e)
		}
	}
	if c.TNominal <= 0 {
		return errors.New("circuit: non-positive nominal period")
	}
	return nil
}

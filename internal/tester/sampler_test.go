package tester

import (
	"context"
	"fmt"
	"math"
	"testing"

	"effitest/internal/circuit"
	"effitest/internal/rng"
)

// oracleSampleChip is the chip-at-a-time sampler the blocked kernel
// replaced: one fresh stream per chip and two la.Dot products per path
// (through ssta.Canon.Sample). It is kept as the reference the kernel must
// match bit for bit.
func oracleSampleChip(c *circuit.Circuit, seed int64, index int) *Chip {
	r := rng.NewIndexed(seed, index, "chip", c.Name)
	z := rng.NormVec(r, c.Model.BasisSize())
	ch := &Chip{
		Circuit: c,
		Index:   index,
		TrueMax: make([]float64, len(c.Paths)),
		TrueMin: make([]float64, len(c.Paths)),
	}
	for i := range c.Paths {
		p := &c.Paths[i]
		eps := r.NormFloat64()
		ch.TrueMax[i] = p.Max.Sample(z, eps)
		ch.TrueMin[i] = p.Min.Sample(z, r.NormFloat64())
		if ch.TrueMin[i] > ch.TrueMax[i] {
			ch.TrueMin[i] = ch.TrueMax[i]
		}
		if ch.TrueMax[i] < 0 {
			ch.TrueMax[i] = 0
		}
		if ch.TrueMin[i] < 0 {
			ch.TrueMin[i] = 0
		}
	}
	return ch
}

// clampedCircuit is tiny with path means shifted so that the kernel's
// clamps fire: some max delays go negative, and some min delays exceed
// their max delay.
func clampedCircuit(t *testing.T) *circuit.Circuit {
	c := *tiny(t)
	c.Name = "clamped"
	c.Paths = append([]circuit.Path(nil), c.Paths...)
	for i := range c.Paths {
		p := &c.Paths[i]
		switch i % 3 {
		case 0:
			p.Max.Mean, p.Min.Mean = -p.Max.Sigma()/2, -p.Max.Sigma()
		case 1:
			p.Min.Mean = p.Max.Mean
		}
	}
	return &c
}

// sparseCircuit is tiny with its loadings rewritten into the shapes the
// kernel's run table must handle: a dense row, an all-zero row, a row of
// −0.0, interior zero runs, −0.0 loadings at both ends and inside a
// nonzero run, and negative loadings.
func sparseCircuit(t *testing.T) *circuit.Circuit {
	c := *tiny(t)
	c.Name = "sparse"
	c.Paths = append([]circuit.Path(nil), c.Paths...)
	negZero := math.Copysign(0, -1)
	for i := range c.Paths {
		p := &c.Paths[i]
		mx := append([]float64(nil), p.Max.Coef...)
		mn := append([]float64(nil), p.Min.Coef...)
		switch i % 5 {
		case 0: // dense
			for k := range mx {
				if mx[k] == 0 {
					mx[k] = 1e-3 * float64(k%7+1)
				}
			}
		case 1: // all zero, and all −0.0
			clear(mx)
			for k := range mn {
				mn[k] = negZero
			}
		case 2: // interior zero runs
			for k := range mx {
				if k%4 == 1 || k%9 == 5 {
					mx[k], mn[k] = 0, 0
				}
			}
		case 3: // −0.0 at the ends and inside a run
			mx[0], mx[len(mx)-1], mx[len(mx)/2] = negZero, negZero, negZero
			mn[1] = negZero
		case 4: // negative loadings
			for k := 1; k < len(mx); k += 2 {
				mx[k], mn[k] = -mx[k], -mn[k]
			}
		}
		p.Max.Coef, p.Min.Coef = mx, mn
	}
	return &c
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestSamplerMatchesOracle pins every consumer shape of the blocked kernel
// — the chip population (min and max delays), the max-only calibration
// draw, and the one-wide SampleChip — bitwise against the chip-at-a-time
// oracle, across whole and ragged final blocks, a nonzero first index and worker
// counts 1, 2 and 8. The oracle draws from math/rand's own source, so it
// also checks the kernel's rng.Source, and it sums every loading, so the
// sparse circuit checks the skipped zero runs.
func TestSamplerMatchesOracle(t *testing.T) {
	ctx := context.Background()
	circuits := []*circuit.Circuit{tiny(t), clampedCircuit(t), sparseCircuit(t)}
	for _, name := range []string{"s9234", "usb_funct"} {
		p, _ := circuit.ProfileByName(name)
		c, err := circuit.Generate(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		circuits = append(circuits, c)
	}
	const seed, first = 17, 3
	for _, c := range circuits {
		oracle := make([]*Chip, first+500)
		for i := range oracle {
			oracle[i] = oracleSampleChip(c, seed, i)
		}
		clamps := 0
		for _, ch := range oracle {
			for p := range ch.TrueMax {
				if ch.TrueMax[p] == 0 || ch.TrueMin[p] == ch.TrueMax[p] {
					clamps++
				}
			}
		}
		if c.Name == "clamped" && clamps == 0 {
			t.Fatal("clamped circuit never exercised a clamp")
		}
		for _, i := range []int{0, 1, 4, 5, first + 499} {
			if got := SampleChip(c, seed, i); !sameBits(got.TrueMax, oracle[i].TrueMax) || !sameBits(got.TrueMin, oracle[i].TrueMin) {
				t.Fatalf("%s: SampleChip(%d) differs from the oracle", c.Name, i)
			}
		}
		// n = 1 and n = 9 end in a one-wide block: dotRuns1's draw.
		for _, n := range []int{1, 3, 5, 9, 16, 499, 500} {
			for _, workers := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("%s/n%d/w%d", c.Name, n, workers), func(t *testing.T) {
					chips, err := SampleChipRangeCtx(ctx, c, seed, first, n, workers)
					if err != nil {
						t.Fatal(err)
					}
					for i, ch := range chips {
						want := oracle[first+i]
						if ch.Index != first+i || !sameBits(ch.TrueMax, want.TrueMax) || !sameBits(ch.TrueMin, want.TrueMin) {
							t.Fatalf("chip %d differs from the oracle", first+i)
						}
					}
					crit := make([]float64, n)
					err = ForEachBlock(ctx, c, seed, 0, n, workers, false, func(s *Sampler, start, count int) {
						for w := range count {
							crit[start+w] = CriticalDelay(s.Max[w])
						}
					})
					if err != nil {
						t.Fatal(err)
					}
					for i, v := range crit {
						if math.Float64bits(v) != math.Float64bits(oracle[i].CriticalDelay()) {
							t.Fatalf("max-only draw of chip %d differs from the oracle", i)
						}
					}
				})
			}
		}
	}
}

func TestForEachBlockCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	err := ForEachBlock(ctx, tiny(t), 1, 0, 100, 1, true, func(*Sampler, int, int) { calls++ })
	if err != context.Canceled || calls != 0 {
		t.Fatalf("err = %v after %d blocks, want context.Canceled before any block", err, calls)
	}
}

// TestPooledSamplerAcrossCircuits reuses one sampler across two circuits
// whose path counts and basis sizes differ, with and without min delays
// and after handing a lane over to a chip — every shape change the pool
// puts a recycled sampler through — and requires each draw to match a
// fresh chip-at-a-time draw bit for bit.
func TestPooledSamplerAcrossCircuits(t *testing.T) {
	p, _ := circuit.ProfileByName("s9234")
	big, err := circuit.Generate(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := circuit.DefaultGenConfig()
	cfg.Variation.GridW, cfg.Variation.GridH = 4, 4
	small, err := circuit.GenerateWith(circuit.TinyProfile("tc4x4", 20, 160, 3, 24), 5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(big.Paths) == len(small.Paths) || big.Model.BasisSize() == small.Model.BasisSize() {
		t.Fatal("the two circuits must differ in path count and basis size")
	}
	s := acquire(big, 17)
	defer release(s)
	for step, d := range []struct {
		c           *circuit.Circuit
		seed        int64
		first, n    int
		withMin     bool
		handOverAt0 bool
	}{
		{big, 17, 0, BlockWidth, true, false},
		{small, 5, 2, 3, false, false},
		{small, 5, 9, BlockWidth, true, true},
		{big, 23, 11, 5, true, false},
		{small, 17, 0, BlockWidth, false, false},
		{big, 17, 3, 1, true, true},
	} {
		s.reset(d.c, d.seed)
		s.draw(d.first, d.n, d.withMin)
		for w := range d.n {
			want := oracleSampleChip(d.c, d.seed, d.first+w)
			gotMax, gotMin := s.Max[w], s.Min[w]
			if w == 0 && d.handOverAt0 {
				ch := s.chip(0, d.first)
				gotMax, gotMin = ch.TrueMax, ch.TrueMin
			}
			if !sameBits(gotMax, want.TrueMax) {
				t.Fatalf("step %d (%s): max delays of chip %d differ from a fresh draw", step, d.c.Name, d.first+w)
			}
			if d.withMin && !sameBits(gotMin, want.TrueMin) {
				t.Fatalf("step %d (%s): min delays of chip %d differ from a fresh draw", step, d.c.Name, d.first+w)
			}
		}
	}
}

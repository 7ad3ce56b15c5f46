package skew

import (
	"math"
	"testing"

	"effitest/internal/rng"
)

// figure2 returns the paper's Figure 2 circuit: four FFs in a loop with
// stage delays 3, 8, 5, 6 and setup/hold times of zero. With zero FF hold
// time the folded hold bound is h_j - d_min = -delay (the paper's d_ij).
func figure2() []Timing {
	return []Timing{
		{From: 0, To: 1, Setup: 3, Hold: -3},
		{From: 1, To: 2, Setup: 8, Hold: -8},
		{From: 2, To: 3, Setup: 5, Hold: -5},
		{From: 3, To: 0, Setup: 6, Hold: -6},
	}
}

func TestFigure2MinPeriodWithoutBuffers(t *testing.T) {
	// Without tuning, the minimum period is the largest stage delay: 8.
	arcs := figure2()
	b := Uniform(4, nil, 0, 0, 0) // no buffers
	if _, ok := FeasibleDiscrete(8, arcs, b); !ok {
		t.Fatal("period 8 must be feasible without buffers")
	}
	if _, ok := FeasibleDiscrete(7.99, arcs, b); ok {
		t.Fatal("period 7.99 must be infeasible without buffers")
	}
}

func TestFigure2MinPeriodWithBuffers(t *testing.T) {
	// With unbounded tuning the min period is the cycle mean 5.5 — the
	// paper's headline example.
	arcs := figure2()
	min, ok := MinPeriodUnconstrained(4, arcs)
	if !ok || math.Abs(min-5.5) > 1e-9 {
		t.Fatalf("min period = %v, want 5.5", min)
	}
	// Wide continuous buffers on all FFs: 5.5 feasible, 5.49 not.
	b := Uniform(4, []int{0, 1, 2, 3}, -4, 4, 0)
	x, ok := Feasible(5.5, arcs, b)
	if !ok {
		t.Fatal("period 5.5 must be feasible with buffers")
	}
	if !Verify(5.5, arcs, x, 1e-9) {
		t.Fatalf("assignment %v fails verification", x)
	}
	if _, ok := Feasible(5.49, arcs, b); ok {
		t.Fatal("period 5.49 must be infeasible (below cycle mean)")
	}
}

func TestFigure2BufferValues(t *testing.T) {
	// At T=5.5 the constraint cycle is tight: x2-x1 must be exactly -2.5
	// relative (the paper shifts F2's launching edge 2.5 early).
	arcs := figure2()
	b := Uniform(4, []int{0, 1, 2, 3}, -4, 4, 0)
	x, ok := Feasible(5.5, arcs, b)
	if !ok {
		t.Fatal("infeasible")
	}
	if d := x[1] - x[0]; math.Abs(d-(-2.5)) > 1e-9 {
		t.Fatalf("x2 - x1 = %v, want -2.5", d)
	}
	if d := x[2] - x[1]; math.Abs(d-2.5) > 1e-9 {
		t.Fatalf("x3 - x2 = %v, want +2.5", d)
	}
}

func TestBufferRangeLimitsPeriod(t *testing.T) {
	// With buffers capped at ±1 the cycle mean 5.5 is out of reach: the
	// binding stage needs x1-x2 = -2.5. Min period becomes 8 - 2 = 6
	// (shift F2 early by 1 and F3 late by 1... check feasibility at 6).
	arcs := figure2()
	b := Uniform(4, []int{0, 1, 2, 3}, -1, 1, 0)
	if _, ok := Feasible(6, arcs, b); !ok {
		t.Fatal("period 6 should be feasible with ±1 buffers")
	}
	if _, ok := Feasible(5.9, arcs, b); ok {
		t.Fatal("period 5.9 should be infeasible with ±1 buffers")
	}
}

func TestDiscreteFeasibilityExactness(t *testing.T) {
	// Lattice with step 0.5: continuous feasibility at T=5.5 requires
	// x2-x1 = -2.5 exactly, which IS on the lattice, so discrete must agree.
	arcs := figure2()
	b := Uniform(4, []int{0, 1, 2, 3}, -4, 4, 16) // step (4-(-4))/16 = 0.5
	x, ok := FeasibleDiscrete(5.5, arcs, b)
	if !ok {
		t.Fatal("discrete 5.5 should be feasible (constraints on lattice)")
	}
	if !Verify(5.5, arcs, x, 1e-9) {
		t.Fatalf("discrete assignment %v infeasible", x)
	}
	for i, v := range x {
		q := b.Quantize(i, v)
		if math.Abs(q-v) > 1e-9 {
			t.Fatalf("x[%d] = %v not on lattice", i, v)
		}
	}
}

func TestDiscreteStricterThanContinuous(t *testing.T) {
	// Coarse lattice (step 2 on [-4,4]): at T=5.5 the required -2.5 shift is
	// not representable, so discrete must fail while continuous succeeds.
	arcs := figure2()
	cont := Uniform(4, []int{0, 1, 2, 3}, -4, 4, 0)
	disc := Uniform(4, []int{0, 1, 2, 3}, -4, 4, 4)
	if _, ok := Feasible(5.5, arcs, cont); !ok {
		t.Fatal("continuous should be feasible")
	}
	if _, ok := FeasibleDiscrete(5.5, arcs, disc); ok {
		t.Fatal("step-2 lattice cannot hit -2.5 shift; must be infeasible")
	}
	// At T=6 the lattice point -2 works.
	if x, ok := FeasibleDiscrete(6, arcs, disc); !ok || !Verify(6, arcs, x, 1e-9) {
		t.Fatal("T=6 should be discretely feasible")
	}
}

func TestHoldConstraints(t *testing.T) {
	// Two FFs, setup gives x0-x1 <= T-5; hold requires x0-x1 >= 2.
	arcs := []Timing{{From: 0, To: 1, Setup: 5, Hold: 2}}
	b := Uniform(2, []int{0, 1}, -3, 3, 0)
	// T = 7: x0-x1 in [2, 2] — single point, feasible.
	x, ok := Feasible(7, arcs, b)
	if !ok {
		t.Fatal("T=7 should be feasible")
	}
	if d := x[0] - x[1]; d < 2-1e-9 || d > 2+1e-9 {
		t.Fatalf("x0-x1 = %v, want 2", d)
	}
	// T = 6.9: setup forces <= 1.9 < hold 2 — infeasible.
	if _, ok := Feasible(6.9, arcs, b); ok {
		t.Fatal("T=6.9 should be infeasible due to hold")
	}
}

func TestUnbufferedFixedAtZero(t *testing.T) {
	// Only FF1 buffered. Setup on 0->1 at T=4 with delay 6 requires
	// x0 - x1 <= -2, i.e. x1 >= 2 (x0 fixed 0).
	arcs := []Timing{{From: 0, To: 1, Setup: 6, Hold: -10}}
	b := Uniform(2, []int{1}, -3, 3, 0)
	x, ok := Feasible(4, arcs, b)
	if !ok {
		t.Fatal("should be feasible")
	}
	if x[0] != 0 {
		t.Fatalf("unbuffered FF moved: %v", x[0])
	}
	if x[1] < 2-1e-9 {
		t.Fatalf("x1 = %v, want >= 2", x[1])
	}
}

func TestQuantize(t *testing.T) {
	b := Uniform(1, []int{0}, -1, 1, 20) // step 0.1
	cases := []struct{ in, want float64 }{
		{0.0, 0.0},
		{0.14, 0.1},
		{0.16, 0.2},
		{-2.0, -1.0},
		{2.0, 1.0},
		{0.999, 1.0},
	}
	for _, c := range cases {
		if got := b.Quantize(0, c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantize(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if s := b.StepSize(0); math.Abs(s-0.1) > 1e-12 {
		t.Errorf("StepSize = %v, want 0.1", s)
	}
}

func TestVerify(t *testing.T) {
	arcs := figure2()
	x := []float64{0, -2.5, 0, -0.5}
	if !Verify(5.5, arcs, x, 1e-9) {
		t.Fatal("known-good assignment rejected")
	}
	if Verify(5.4, arcs, x, 1e-9) {
		t.Fatal("should fail at tighter period")
	}
}

func TestRandomDiscreteAlwaysSatisfies(t *testing.T) {
	// Property: whenever FeasibleDiscrete says yes, the assignment verifies
	// and sits on the lattice.
	r := rng.New(5, "skewprop")
	for trial := 0; trial < 60; trial++ {
		n := 3 + r.Intn(5)
		var arcs []Timing
		for i := 0; i < n; i++ {
			j := (i + 1) % n
			arcs = append(arcs, Timing{From: i, To: j, Setup: 2 + 6*r.Float64(), Hold: -1})
			if r.Float64() < 0.4 {
				k := r.Intn(n)
				if k != i {
					arcs = append(arcs, Timing{From: i, To: k, Setup: 2 + 6*r.Float64(), Hold: -1})
				}
			}
		}
		buffered := []int{}
		for i := 0; i < n; i++ {
			if r.Float64() < 0.6 {
				buffered = append(buffered, i)
			}
		}
		b := Uniform(n, buffered, -1, 1, 20)
		T := 4 + 4*r.Float64()
		x, ok := FeasibleDiscrete(T, arcs, b)
		if !ok {
			continue
		}
		if !Verify(T, arcs, x, 1e-9) {
			t.Fatalf("trial %d: discrete assignment fails verification", trial)
		}
		for i, v := range x {
			if !b.Buffered[i] && v != 0 {
				t.Fatalf("trial %d: unbuffered FF %d moved", trial, i)
			}
			if b.Buffered[i] && math.Abs(b.Quantize(i, v)-v) > 1e-9 {
				t.Fatalf("trial %d: x[%d]=%v off lattice", trial, i, v)
			}
		}
	}
}

func TestDiscreteMatchesContinuousOnFineLattice(t *testing.T) {
	// With a very fine lattice, discrete feasibility should match continuous
	// on comfortably-feasible and comfortably-infeasible periods.
	arcs := figure2()
	fine := Uniform(4, []int{0, 1, 2, 3}, -4, 4, 1600)
	cont := Uniform(4, []int{0, 1, 2, 3}, -4, 4, 0)
	for _, T := range []float64{5.51, 6, 7, 8, 5.3, 5.0} {
		_, okD := FeasibleDiscrete(T, arcs, fine)
		_, okC := Feasible(T, arcs, cont)
		if okD != okC {
			t.Fatalf("T=%v: discrete %v vs continuous %v", T, okD, okC)
		}
	}
}

package mip

import (
	"context"
	"errors"
	"math"
	"testing"

	"effitest/internal/lp"
	"effitest/internal/rng"
)

func TestKnapsackSmall(t *testing.T) {
	// max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6, binary.
	// Enumerate: a+c (5w? 3+2=5<=6) value 17; b+c (6) value 20; a+b (7) infeas.
	// Optimum 20. As minimization: negate values.
	p := NewProblem()
	a := p.AddBinVar("a", -10)
	b := p.AddBinVar("b", -13)
	c := p.AddBinVar("c", -7)
	p.AddConstraint("w", []lp.Term{{Var: a, Coef: 3}, {Var: b, Coef: 4}, {Var: c, Coef: 2}}, lp.LE, 6)
	sol, err := p.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.StatusOptimal {
		t.Fatalf("status %v", sol.Status)
	}
	if math.Abs(sol.Objective+20) > 1e-6 {
		t.Fatalf("objective %v, want -20", sol.Objective)
	}
	if sol.X[a] != 0 || sol.X[b] != 1 || sol.X[c] != 1 {
		t.Fatalf("solution %v, want b,c", sol.X)
	}
}

func TestKnapsackAgainstBruteForce(t *testing.T) {
	r := rng.New(17, "knapsack")
	for trial := 0; trial < 25; trial++ {
		n := 6 + r.Intn(4)
		w := make([]float64, n)
		v := make([]float64, n)
		for i := range w {
			w[i] = 1 + float64(r.Intn(9))
			v[i] = 1 + float64(r.Intn(19))
		}
		cap := 0.0
		for _, wi := range w {
			cap += wi
		}
		cap = math.Floor(cap / 2)

		p := NewProblem()
		vars := make([]int, n)
		terms := make([]lp.Term, n)
		for i := range vars {
			vars[i] = p.AddBinVar("x", -v[i])
			terms[i] = lp.Term{Var: vars[i], Coef: w[i]}
		}
		p.AddConstraint("cap", terms, lp.LE, cap)
		sol, err := p.Solve(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != lp.StatusOptimal {
			t.Fatalf("trial %d: status %v", trial, sol.Status)
		}

		best := 0.0
		for mask := 0; mask < 1<<n; mask++ {
			wt, val := 0.0, 0.0
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					wt += w[i]
					val += v[i]
				}
			}
			if wt <= cap && val > best {
				best = val
			}
		}
		if math.Abs(-sol.Objective-best) > 1e-6 {
			t.Fatalf("trial %d: mip %v vs brute force %v", trial, -sol.Objective, best)
		}
	}
}

func TestIntegerRounding(t *testing.T) {
	// min x s.t. x >= 2.3, x integer -> 3.
	p := NewProblem()
	x := p.AddIntVar("x", 0, 10, 1)
	p.AddConstraint("c", []lp.Term{{Var: x, Coef: 1}}, lp.GE, 2.3)
	sol, err := p.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.StatusOptimal || sol.X[x] != 3 {
		t.Fatalf("got %v x=%v, want 3", sol.Status, sol.X)
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// min y s.t. y >= x - 2.5, y >= 2.5 - x, x integer in [0,5], y cont.
	// Best integer x is 2 or 3, giving y = 0.5.
	p := NewProblem()
	x := p.AddIntVar("x", 0, 5, 0)
	y := p.AddVar("y", 0, lp.Inf, 1)
	p.AddConstraint("c1", []lp.Term{{Var: y, Coef: 1}, {Var: x, Coef: -1}}, lp.GE, -2.5)
	p.AddConstraint("c2", []lp.Term{{Var: y, Coef: 1}, {Var: x, Coef: 1}}, lp.GE, 2.5)
	sol, err := p.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.StatusOptimal {
		t.Fatalf("status %v", sol.Status)
	}
	if math.Abs(sol.Objective-0.5) > 1e-6 {
		t.Fatalf("objective %v, want 0.5", sol.Objective)
	}
	if sol.X[x] != 2 && sol.X[x] != 3 {
		t.Fatalf("x = %v, want 2 or 3", sol.X[x])
	}
}

func TestInfeasibleMIP(t *testing.T) {
	// x + y = 1.5 with both binary is infeasible.
	p := NewProblem()
	x := p.AddBinVar("x", 1)
	y := p.AddBinVar("y", 1)
	p.AddConstraint("c", []lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 1}}, lp.EQ, 1.5)
	sol, err := p.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.StatusInfeasible {
		t.Fatalf("status %v, want infeasible", sol.Status)
	}
}

func TestBigMIndicator(t *testing.T) {
	// The alignment model's big-M pattern: z binary selects which of two
	// cases holds. min eta s.t.
	//   t - c <= M z;  (t - c) - eta <= M(1-z);  -(t-c) - eta <= M z ... —
	// here a reduced sanity version: eta >= |t - c| enforced via two big-M
	// constraints and one binary.
	const M = 1e4
	c := 3.0
	p := NewProblem()
	tv := p.AddVar("t", 0, 10, 0)
	eta := p.AddVar("eta", 0, lp.Inf, 1)
	z := p.AddBinVar("z", 0)
	// If z=0: t <= c and eta >= c - t. If z=1: t >= c and eta >= t - c.
	p.AddConstraint("case0", []lp.Term{{Var: tv, Coef: 1}, {Var: z, Coef: -M}}, lp.LE, c)
	p.AddConstraint("case0eta", []lp.Term{{Var: eta, Coef: -1}, {Var: tv, Coef: -1}, {Var: z, Coef: -M}}, lp.LE, -c)
	p.AddConstraint("case1", []lp.Term{{Var: tv, Coef: -1}, {Var: z, Coef: M}}, lp.LE, M-c)
	p.AddConstraint("case1eta", []lp.Term{{Var: eta, Coef: -1}, {Var: tv, Coef: 1}, {Var: z, Coef: M}}, lp.LE, M+c)
	// Force t = 7.5, expect eta = 4.5.
	p.AddConstraint("fix", []lp.Term{{Var: tv, Coef: 1}}, lp.EQ, 7.5)
	sol, err := p.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.StatusOptimal || math.Abs(sol.X[eta]-4.5) > 1e-5 {
		t.Fatalf("got %v eta=%v, want 4.5", sol.Status, sol.X)
	}
}

func TestNodeLimit(t *testing.T) {
	// A MIP that needs some branching; with NodeLimit 1 we should get the
	// iteration-limit status (the root LP is fractional).
	p := NewProblem()
	x := p.AddIntVar("x", 0, 10, -1)
	y := p.AddIntVar("y", 0, 10, -1)
	p.AddConstraint("c", []lp.Term{{Var: x, Coef: 2}, {Var: y, Coef: 3}}, lp.LE, 7.5)
	p.NodeLimit = 1
	sol, err := p.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.StatusIterLimit {
		t.Fatalf("status %v, want iteration-limit", sol.Status)
	}
}

func TestIntegerEqualsLPWhenIntegral(t *testing.T) {
	// If the LP relaxation optimum is already integral, B&B returns it in one
	// node.
	p := NewProblem()
	x := p.AddIntVar("x", 0, 4, -1)
	p.AddConstraint("c", []lp.Term{{Var: x, Coef: 1}}, lp.LE, 3)
	sol, err := p.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.StatusOptimal || sol.X[x] != 3 || sol.Nodes != 1 {
		t.Fatalf("got %v x=%v nodes=%d", sol.Status, sol.X, sol.Nodes)
	}
}

func TestGeneralIntegerAgainstEnumeration(t *testing.T) {
	// Random 2-var integer programs cross-checked against full enumeration.
	r := rng.New(23, "ip2")
	for trial := 0; trial < 40; trial++ {
		ub := 8.0
		c1 := float64(r.Intn(11) - 5)
		c2 := float64(r.Intn(11) - 5)
		a1 := 1 + r.Float64()*3
		a2 := 1 + r.Float64()*3
		rhs := 5 + r.Float64()*15

		p := NewProblem()
		x := p.AddIntVar("x", 0, ub, c1)
		y := p.AddIntVar("y", 0, ub, c2)
		p.AddConstraint("c", []lp.Term{{Var: x, Coef: a1}, {Var: y, Coef: a2}}, lp.LE, rhs)
		sol, err := p.Solve(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != lp.StatusOptimal {
			t.Fatalf("trial %d: %v", trial, sol.Status)
		}
		best := math.Inf(1)
		for xi := 0.0; xi <= ub; xi++ {
			for yi := 0.0; yi <= ub; yi++ {
				if a1*xi+a2*yi <= rhs+1e-9 {
					if v := c1*xi + c2*yi; v < best {
						best = v
					}
				}
			}
		}
		if math.Abs(best-sol.Objective) > 1e-6 {
			t.Fatalf("trial %d: mip %v vs enumeration %v", trial, sol.Objective, best)
		}
	}
}

// checkCtx is a context that counts its Err calls and reports cancellation
// from call number cancelAt on (never when cancelAt is 0).
type checkCtx struct {
	context.Context
	calls, cancelAt int
}

func (c *checkCtx) Err() error {
	c.calls++
	if c.cancelAt > 0 && c.calls >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// TestSolveHonoursContext checks that branch and bound looks at its
// context at every node: a knapsack that explores many nodes, cancelled
// halfway through its checks, returns the context's error instead of an
// incumbent.
func TestSolveHonoursContext(t *testing.T) {
	r := rng.New(3, "mipctx")
	p := NewProblem()
	terms := make([]lp.Term, 16)
	for i := range terms {
		terms[i] = lp.Term{Var: p.AddBinVar("x", -float64(1+r.Intn(19))), Coef: float64(1 + r.Intn(9))}
	}
	p.AddConstraint("cap", terms, lp.LE, 37)
	count := &checkCtx{Context: context.Background()}
	sol, err := p.Solve(count)
	if err != nil || sol.Status != lp.StatusOptimal {
		t.Fatalf("uncancelled solve: %+v, %v", sol, err)
	}
	if count.calls < sol.Nodes || sol.Nodes < 4 {
		t.Fatalf("%d nodes, %d context checks: want at least one check per node and 4 nodes", sol.Nodes, count.calls)
	}
	for _, at := range []int{1, count.calls / 2} {
		if _, err := p.Solve(&checkCtx{Context: context.Background(), cancelAt: at}); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled at check %d: err = %v, want context.Canceled", at, err)
		}
	}
}

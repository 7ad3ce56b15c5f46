package lp

import (
	"math"
	"testing"

	"effitest/internal/rng"
)

func solveOrFail(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("solve error: %v", err)
	}
	return sol
}

func TestSimpleMax(t *testing.T) {
	// max 3x + 5y s.t. x <= 4; 2y <= 12; 3x + 2y <= 18; x,y >= 0, stated
	// as min -3x - 5y. Classic Dantzig example: optimum (2, 6) with
	// objective 36.
	p := NewProblem()
	x := p.AddVar("x", 0, Inf, -3)
	y := p.AddVar("y", 0, Inf, -5)
	p.AddConstraint("c1", []Term{{x, 1}}, LE, 4)
	p.AddConstraint("c2", []Term{{y, 2}}, LE, 12)
	p.AddConstraint("c3", []Term{{x, 3}, {y, 2}}, LE, 18)
	sol := solveOrFail(t, p)
	if sol.Status != StatusOptimal {
		t.Fatalf("status %v", sol.Status)
	}
	if math.Abs(sol.Objective+36) > 1e-8 {
		t.Fatalf("objective %v, want -36", sol.Objective)
	}
	if math.Abs(sol.X[x]-2) > 1e-8 || math.Abs(sol.X[y]-6) > 1e-8 {
		t.Fatalf("solution %v, want (2, 6)", sol.X)
	}
}

func TestMinWithGE(t *testing.T) {
	// min 2x + 3y s.t. x + y >= 10, x >= 2, y >= 0. Optimum: y=0? check:
	// put everything into x: (10,0): 20; (2,8): 28. So (10,0) => 20.
	p := NewProblem()
	x := p.AddVar("x", 2, Inf, 2)
	y := p.AddVar("y", 0, Inf, 3)
	p.AddConstraint("cover", []Term{{x, 1}, {y, 1}}, GE, 10)
	sol := solveOrFail(t, p)
	if sol.Status != StatusOptimal {
		t.Fatalf("status %v", sol.Status)
	}
	if math.Abs(sol.Objective-20) > 1e-8 {
		t.Fatalf("objective %v, want 20", sol.Objective)
	}
}

func TestEqualityConstraint(t *testing.T) {
	// min x + y s.t. x + 2y = 4, x,y >= 0 -> (0,2) obj 2.
	p := NewProblem()
	x := p.AddVar("x", 0, Inf, 1)
	y := p.AddVar("y", 0, Inf, 1)
	p.AddConstraint("eq", []Term{{x, 1}, {y, 2}}, EQ, 4)
	sol := solveOrFail(t, p)
	if sol.Status != StatusOptimal || math.Abs(sol.Objective-2) > 1e-8 {
		t.Fatalf("got %v obj %v, want optimal 2", sol.Status, sol.Objective)
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x", 0, 1, 1)
	p.AddConstraint("c", []Term{{x, 1}}, GE, 2)
	sol := solveOrFail(t, p)
	if sol.Status != StatusInfeasible {
		t.Fatalf("status %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x", 0, Inf, -1) // min -x, x unbounded above
	_ = x
	sol := solveOrFail(t, p)
	if sol.Status != StatusUnbounded {
		t.Fatalf("status %v, want unbounded", sol.Status)
	}
}

func TestFreeVariable(t *testing.T) {
	// min |shape| via free var: min x s.t. x >= -5 modeled with free x and
	// constraint x >= -5. Optimum -5.
	p := NewProblem()
	x := p.AddVar("x", math.Inf(-1), Inf, 1)
	p.AddConstraint("lb", []Term{{x, 1}}, GE, -5)
	sol := solveOrFail(t, p)
	if sol.Status != StatusOptimal || math.Abs(sol.X[x]+5) > 1e-8 {
		t.Fatalf("got %v x=%v, want -5", sol.Status, sol.X)
	}
}

func TestUpperBoundedVariable(t *testing.T) {
	// max x + y with x in [0,3], y in [1,2], stated as min -x - y:
	// optimum -5 at (3,2).
	p := NewProblem()
	x := p.AddVar("x", 0, 3, -1)
	y := p.AddVar("y", 1, 2, -1)
	sol := solveOrFail(t, p)
	if sol.Status != StatusOptimal || math.Abs(sol.Objective+5) > 1e-8 {
		t.Fatalf("got %v obj %v", sol.Status, sol.Objective)
	}
	_ = x
	_ = y
}

func TestNegativeUpperBoundVariable(t *testing.T) {
	// Variable with hi finite, lo = -inf: min -x with x <= 7 -> x = 7.
	p := NewProblem()
	x := p.AddVar("x", math.Inf(-1), 7, -1)
	sol := solveOrFail(t, p)
	if sol.Status != StatusOptimal || math.Abs(sol.X[x]-7) > 1e-8 {
		t.Fatalf("got %v x=%v, want 7", sol.Status, sol.X)
	}
}

func TestFixedVariable(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x", 3, 3, 1)
	y := p.AddVar("y", 0, Inf, 1)
	p.AddConstraint("c", []Term{{x, 1}, {y, 1}}, GE, 5)
	sol := solveOrFail(t, p)
	if sol.Status != StatusOptimal {
		t.Fatalf("status %v", sol.Status)
	}
	if math.Abs(sol.X[x]-3) > 1e-9 || math.Abs(sol.X[y]-2) > 1e-8 {
		t.Fatalf("solution %v, want (3,2)", sol.X)
	}
}

func TestEmptyBoundsInfeasible(t *testing.T) {
	p := NewProblem()
	v := p.AddVar("x", 0, 5, 1)
	p.SetVarBounds(v, 4, 2) // deliberately inverted, as branch&bound may do
	sol := solveOrFail(t, p)
	if sol.Status != StatusInfeasible {
		t.Fatalf("status %v, want infeasible", sol.Status)
	}
}

func TestNegativeRHS(t *testing.T) {
	// min x s.t. -x <= -3  (i.e. x >= 3)
	p := NewProblem()
	x := p.AddVar("x", 0, Inf, 1)
	p.AddConstraint("c", []Term{{x, -1}}, LE, -3)
	sol := solveOrFail(t, p)
	if sol.Status != StatusOptimal || math.Abs(sol.X[x]-3) > 1e-8 {
		t.Fatalf("got %v x=%v, want 3", sol.Status, sol.X)
	}
}

func TestAbsoluteValueLP(t *testing.T) {
	// The alignment fast mode relies on: min η with η >= t-c, η >= c-t
	// giving η = |t-c| at optimum. Check with fixed t.
	for _, tv := range []float64{-2, 0, 3.5} {
		p := NewProblem()
		tvar := p.AddVar("t", tv, tv, 0)
		eta := p.AddVar("eta", 0, Inf, 1)
		c := 1.0
		p.AddConstraint("p1", []Term{{eta, 1}, {tvar, -1}}, GE, -c)
		p.AddConstraint("p2", []Term{{eta, 1}, {tvar, 1}}, GE, c)
		sol := solveOrFail(t, p)
		want := math.Abs(tv - c)
		if math.Abs(sol.X[eta]-want) > 1e-8 {
			t.Fatalf("t=%v: eta=%v, want %v", tv, sol.X[eta], want)
		}
	}
}

func TestDegenerateProblem(t *testing.T) {
	// Known degenerate LP (Beale-like); Bland fallback must terminate.
	p := NewProblem()
	x1 := p.AddVar("x1", 0, Inf, -0.75)
	x2 := p.AddVar("x2", 0, Inf, 150)
	x3 := p.AddVar("x3", 0, Inf, -0.02)
	x4 := p.AddVar("x4", 0, Inf, 6)
	p.AddConstraint("c1", []Term{{x1, 0.25}, {x2, -60}, {x3, -0.04}, {x4, 9}}, LE, 0)
	p.AddConstraint("c2", []Term{{x1, 0.5}, {x2, -90}, {x3, -0.02}, {x4, 3}}, LE, 0)
	p.AddConstraint("c3", []Term{{x3, 1}}, LE, 1)
	sol := solveOrFail(t, p)
	if sol.Status != StatusOptimal {
		t.Fatalf("status %v, want optimal", sol.Status)
	}
	if math.Abs(sol.Objective-(-0.05)) > 1e-6 {
		t.Fatalf("objective %v, want -0.05", sol.Objective)
	}
}

func TestRedundantEqualities(t *testing.T) {
	// x + y = 2 twice: redundant row must not break phase 1 cleanup.
	p := NewProblem()
	x := p.AddVar("x", 0, Inf, 1)
	y := p.AddVar("y", 0, Inf, 2)
	p.AddConstraint("e1", []Term{{x, 1}, {y, 1}}, EQ, 2)
	p.AddConstraint("e2", []Term{{x, 1}, {y, 1}}, EQ, 2)
	sol := solveOrFail(t, p)
	if sol.Status != StatusOptimal || math.Abs(sol.Objective-2) > 1e-8 {
		t.Fatalf("got %v obj %v, want optimal 2 at (2,0)", sol.Status, sol.Objective)
	}
}

func TestFeasibleEval(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x", 0, 10, 2)
	p.AddConstraint("c", []Term{{x, 1}}, LE, 5)
	if !p.Feasible([]float64{4}, 1e-9) {
		t.Error("4 should be feasible")
	}
	if p.Feasible([]float64{6}, 1e-9) {
		t.Error("6 violates constraint")
	}
	if p.Feasible([]float64{-1}, 1e-9) {
		t.Error("-1 violates bound")
	}
	obj, err := p.Eval([]float64{4})
	if err != nil || obj != 8 {
		t.Errorf("Eval = %v, %v", obj, err)
	}
}

// TestRandomLPsAgainstVertexSearch cross-checks small random LPs against a
// brute-force search over constraint-boundary intersections.
func TestRandomLPsAgainstVertexSearch(t *testing.T) {
	r := rng.New(99, "lpcross")
	for trial := 0; trial < 60; trial++ {
		// 2 variables in [0, ub], 3 LE constraints with positive coeffs so the
		// region is bounded and nonempty (origin always feasible).
		p := NewProblem()
		ub := 10.0
		x := p.AddVar("x", 0, ub, -(1 + r.Float64()))
		y := p.AddVar("y", 0, ub, -(1 + r.Float64()))
		type con struct{ a, b, rhs float64 }
		cons := make([]con, 3)
		for i := range cons {
			cons[i] = con{r.Float64() + 0.1, r.Float64() + 0.1, 4 + 6*r.Float64()}
			p.AddConstraint("c", []Term{{x, cons[i].a}, {y, cons[i].b}}, LE, cons[i].rhs)
		}
		sol := solveOrFail(t, p)
		if sol.Status != StatusOptimal {
			t.Fatalf("trial %d: status %v", trial, sol.Status)
		}
		// Brute force over candidate vertices: intersections of all boundary
		// pairs (constraints as equalities plus box edges).
		lines := [][3]float64{{1, 0, 0}, {0, 1, 0}, {1, 0, ub}, {0, 1, ub}}
		for _, c := range cons {
			lines = append(lines, [3]float64{c.a, c.b, c.rhs})
		}
		best := math.Inf(1)
		for i := 0; i < len(lines); i++ {
			for j := i + 1; j < len(lines); j++ {
				a1, b1, r1 := lines[i][0], lines[i][1], lines[i][2]
				a2, b2, r2 := lines[j][0], lines[j][1], lines[j][2]
				det := a1*b2 - a2*b1
				if math.Abs(det) < 1e-9 {
					continue
				}
				px := (r1*b2 - r2*b1) / det
				py := (a1*r2 - a2*r1) / det
				if !p.Feasible([]float64{px, py}, 1e-7) {
					continue
				}
				obj, _ := p.Eval([]float64{px, py})
				if obj < best {
					best = obj
				}
			}
		}
		if math.Abs(best-sol.Objective) > 1e-6 {
			t.Fatalf("trial %d: simplex %v vs vertex search %v", trial, sol.Objective, best)
		}
	}
}

func TestStatusString(t *testing.T) {
	if StatusOptimal.String() != "optimal" || StatusInfeasible.String() != "infeasible" ||
		StatusUnbounded.String() != "unbounded" || StatusIterLimit.String() != "iteration-limit" {
		t.Error("status strings wrong")
	}
	if Status(42).String() == "" {
		t.Error("unknown status should still print")
	}
}

func TestIterationLimit(t *testing.T) {
	// With MaxIter = 1 even a simple LP cannot finish both phases.
	p := NewProblem()
	x := p.AddVar("x", 0, Inf, -1)
	y := p.AddVar("y", 0, Inf, -1)
	p.AddConstraint("c1", []Term{{x, 1}, {y, 2}}, LE, 10)
	p.AddConstraint("c2", []Term{{x, 2}, {y, 1}}, LE, 10)
	p.MaxIter = 1
	sol := solveOrFail(t, p)
	if sol.Status != StatusIterLimit {
		t.Fatalf("status %v, want iteration-limit", sol.Status)
	}
}

func TestManyEqualOptima(t *testing.T) {
	// Degenerate objective (all-zero costs): any feasible vertex is optimal;
	// the solver must return a feasible point with objective 0.
	p := NewProblem()
	x := p.AddVar("x", 0, 5, 0)
	y := p.AddVar("y", 0, 5, 0)
	p.AddConstraint("c", []Term{{x, 1}, {y, 1}}, GE, 3)
	sol := solveOrFail(t, p)
	if sol.Status != StatusOptimal || sol.Objective != 0 {
		t.Fatalf("got %v obj %v", sol.Status, sol.Objective)
	}
	if !p.Feasible(sol.X, 1e-9) {
		t.Fatalf("returned infeasible point %v", sol.X)
	}
}

func TestClone(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x", 0, 5, 1)
	p.AddConstraint("c", []Term{{x, 1}}, GE, 1)
	q := p.Clone()
	q.SetVarBounds(x, 2, 5)
	s1 := solveOrFail(t, p)
	s2 := solveOrFail(t, q)
	if math.Abs(s1.X[x]-1) > 1e-8 {
		t.Fatalf("original perturbed: %v", s1.X)
	}
	if math.Abs(s2.X[x]-2) > 1e-8 {
		t.Fatalf("clone wrong: %v", s2.X)
	}
}

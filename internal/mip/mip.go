// Package mip implements a branch-and-bound mixed-integer programming solver
// on top of the simplex in package lp. Together they replace the commercial
// solver (Gurobi) used by the EffiTest paper for the delay-alignment model
// (Eqs. 7–14), the buffer-configuration model (Eqs. 15–18) and the hold-time
// bound model (Eqs. 19–20).
//
// The solver minimizes by convention. Branching is most-fractional with
// round-nearest-first child ordering; nodes are pruned against the incumbent
// with a small absolute tolerance.
package mip

import (
	"errors"
	"math"

	"effitest/internal/lp"
)

// Solution is the result of a MIP solve.
type Solution struct {
	Status    lp.Status
	Objective float64
	X         []float64
	Nodes     int // branch-and-bound nodes explored
}

// Problem is a mixed-integer program under construction.
type Problem struct {
	base    *lp.Problem
	integer []bool

	// NodeLimit bounds branch-and-bound nodes; 0 means the default (200k).
	NodeLimit int
	// Gap is the absolute pruning tolerance; 0 means 1e-9.
	Gap float64
}

// NewProblem returns an empty minimization MIP.
func NewProblem() *Problem {
	return &Problem{base: lp.NewProblem()}
}

// AddVar adds a continuous variable and returns its index.
func (p *Problem) AddVar(name string, lo, hi, obj float64) int {
	p.integer = append(p.integer, false)
	return p.base.AddVar(name, lo, hi, obj)
}

// AddIntVar adds an integer variable with bounds [lo, hi].
func (p *Problem) AddIntVar(name string, lo, hi, obj float64) int {
	p.integer = append(p.integer, true)
	return p.base.AddVar(name, lo, hi, obj)
}

// AddBinVar adds a 0/1 variable.
func (p *Problem) AddBinVar(name string, obj float64) int {
	return p.AddIntVar(name, 0, 1, obj)
}

// AddConstraint adds a linear constraint.
func (p *Problem) AddConstraint(name string, terms []lp.Term, sense lp.Sense, rhs float64) {
	p.base.AddConstraint(name, terms, sense, rhs)
}

const intTol = 1e-6

type node struct {
	overrides []boundOverride
	bound     float64 // parent LP objective (lower bound)
}

type boundOverride struct {
	v      int
	lo, hi float64
}

// Solve runs branch and bound. The returned status is StatusOptimal when the
// search completed with an incumbent, StatusInfeasible when no integral
// solution exists, and StatusIterLimit when the node limit was hit (in which
// case the incumbent, if any, is returned with that status).
func (p *Problem) Solve() (*Solution, error) {
	nodeLimit := p.NodeLimit
	if nodeLimit == 0 {
		nodeLimit = 200000
	}
	gap := p.Gap
	if gap == 0 {
		gap = 1e-9
	}

	incumbentObj := math.Inf(1)
	var incumbentX []float64
	nodes := 0

	stack := []node{{}}
	for len(stack) > 0 {
		if nodes >= nodeLimit {
			if incumbentX != nil {
				return &Solution{Status: lp.StatusIterLimit, Objective: incumbentObj, X: incumbentX, Nodes: nodes}, nil
			}
			return &Solution{Status: lp.StatusIterLimit, Nodes: nodes}, nil
		}
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if nd.bound > incumbentObj-gap && incumbentX != nil {
			continue // parent bound already dominated
		}
		nodes++

		sub := p.base.Clone()
		for _, o := range nd.overrides {
			sub.SetVarBounds(o.v, o.lo, o.hi)
		}
		sol, err := sub.Solve()
		if err != nil {
			return nil, err
		}
		switch sol.Status {
		case lp.StatusInfeasible:
			continue
		case lp.StatusUnbounded:
			// With all-integer branching an unbounded relaxation means the
			// MIP itself is unbounded (or the model is missing bounds).
			return nil, errors.New("mip: LP relaxation unbounded; add variable bounds")
		case lp.StatusIterLimit:
			return nil, errors.New("mip: LP relaxation hit iteration limit")
		}
		if sol.Objective > incumbentObj-gap && incumbentX != nil {
			continue
		}

		branchVar, frac := p.mostFractional(sol.X)
		if branchVar < 0 {
			// Integral: round the integer coordinates exactly and accept.
			x := make([]float64, len(sol.X))
			copy(x, sol.X)
			for i, isInt := range p.integer {
				if isInt {
					x[i] = math.Round(x[i])
				}
			}
			if sol.Objective < incumbentObj {
				incumbentObj = sol.Objective
				incumbentX = x
			}
			continue
		}

		val := sol.X[branchVar]
		lo, hi := floorCeil(val)
		origLo, origHi := boundsAfter(p.base, nd.overrides, branchVar)

		down := append(cloneOverrides(nd.overrides), boundOverride{branchVar, origLo, lo})
		up := append(cloneOverrides(nd.overrides), boundOverride{branchVar, hi, origHi})
		// Explore the child nearer the LP value first (stack: push far first).
		if frac < 0.5 {
			stack = append(stack, node{up, sol.Objective}, node{down, sol.Objective})
		} else {
			stack = append(stack, node{down, sol.Objective}, node{up, sol.Objective})
		}
	}

	if incumbentX == nil {
		return &Solution{Status: lp.StatusInfeasible, Nodes: nodes}, nil
	}
	return &Solution{Status: lp.StatusOptimal, Objective: incumbentObj, X: incumbentX, Nodes: nodes}, nil
}

// mostFractional returns the integer variable whose value is farthest from
// integral, or -1 if all integer variables are integral.
func (p *Problem) mostFractional(x []float64) (int, float64) {
	best, bestDist := -1, intTol
	var bestFrac float64
	for i, isInt := range p.integer {
		if !isInt {
			continue
		}
		f := x[i] - math.Floor(x[i])
		dist := math.Min(f, 1-f)
		if dist > bestDist {
			best, bestDist, bestFrac = i, dist, f
		}
	}
	return best, bestFrac
}

func floorCeil(v float64) (lo, hi float64) {
	f := math.Floor(v)
	if v-f < intTol { // already (nearly) integral; split around it anyway
		return f, f + 1
	}
	return f, f + 1
}

func boundsAfter(base *lp.Problem, overrides []boundOverride, v int) (lo, hi float64) {
	lo, hi = base.VarBounds(v)
	for _, o := range overrides {
		if o.v == v {
			lo, hi = o.lo, o.hi
		}
	}
	return lo, hi
}

func cloneOverrides(o []boundOverride) []boundOverride {
	out := make([]boundOverride, len(o), len(o)+1)
	copy(out, o)
	return out
}

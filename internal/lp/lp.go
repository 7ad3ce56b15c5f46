// Package lp implements a dense two-phase simplex solver for linear
// programs with variable bounds. It stands in for the commercial ILP solver
// (Gurobi) the EffiTest paper uses: package mip adds branch & bound on top.
//
// The solver targets the problem sizes EffiTest produces — alignment models
// with tens of variables (Eqs. 7–14) and small cross-check instances of the
// configuration model (Eqs. 15–18). It is a textbook tableau implementation:
// bounds are rewritten into shifted non-negative variables plus explicit
// upper-bound rows, Phase 1 minimizes artificial infeasibility, Phase 2 the
// real objective. Dantzig pricing with a Bland fallback guards against
// cycling.
package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// Status is the outcome of a solve.
type Status int

const (
	// StatusOptimal means an optimal solution was found.
	StatusOptimal Status = iota
	// StatusInfeasible means no feasible point exists.
	StatusInfeasible
	// StatusUnbounded means the objective is unbounded below (for
	// minimization).
	StatusUnbounded
	// StatusIterLimit means the iteration limit was exceeded.
	StatusIterLimit
)

// String returns a human-readable status.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusIterLimit:
		return "iteration-limit"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Sense is a constraint relation.
type Sense int

const (
	// LE is a ≤ constraint.
	LE Sense = iota
	// GE is a ≥ constraint.
	GE
	// EQ is an equality constraint.
	EQ
)

// Inf is the bound value representing +infinity.
var Inf = math.Inf(1)

// Term is one coefficient of a linear expression.
type Term struct {
	Var  int
	Coef float64
}

type variable struct {
	name string
	lo   float64
	hi   float64
	obj  float64
}

type constraint struct {
	name  string
	terms []Term
	sense Sense
	rhs   float64
}

// Problem is a linear program under construction. The zero value is an empty
// minimization problem.
type Problem struct {
	vars []variable
	cons []constraint

	// MaxIter bounds simplex pivots; 0 means automatic (scales with size).
	MaxIter int
}

// NewProblem returns an empty minimization problem.
func NewProblem() *Problem { return &Problem{} }

// AddVar adds a variable with bounds [lo, hi] (use -lp.Inf / lp.Inf for free
// sides) and objective coefficient obj. It returns the variable index.
func (p *Problem) AddVar(name string, lo, hi, obj float64) int {
	if lo > hi {
		panic(fmt.Sprintf("lp: variable %q has lo %v > hi %v", name, lo, hi))
	}
	p.vars = append(p.vars, variable{name: name, lo: lo, hi: hi, obj: obj})
	return len(p.vars) - 1
}

// AddConstraint adds a linear constraint Σ terms (sense) rhs.
func (p *Problem) AddConstraint(name string, terms []Term, sense Sense, rhs float64) {
	for _, t := range terms {
		if t.Var < 0 || t.Var >= len(p.vars) {
			panic(fmt.Sprintf("lp: constraint %q references unknown variable %d", name, t.Var))
		}
	}
	ts := make([]Term, len(terms))
	copy(ts, terms)
	p.cons = append(p.cons, constraint{name: name, terms: ts, sense: sense, rhs: rhs})
}

// VarBounds returns the bounds of variable v.
func (p *Problem) VarBounds(v int) (lo, hi float64) { return p.vars[v].lo, p.vars[v].hi }

// SetVarBounds updates the bounds of variable v (used by branch & bound).
func (p *Problem) SetVarBounds(v int, lo, hi float64) {
	if lo > hi {
		// Deliberately representable: branch & bound may create empty boxes,
		// which must surface as infeasible rather than panic.
		p.vars[v].lo, p.vars[v].hi = 1, -1
		return
	}
	p.vars[v].lo, p.vars[v].hi = lo, hi
}

// Clone returns an independent copy of the problem.
func (p *Problem) Clone() *Problem {
	q := &Problem{MaxIter: p.MaxIter}
	q.vars = make([]variable, len(p.vars))
	copy(q.vars, p.vars)
	q.cons = make([]constraint, len(p.cons))
	for i, c := range p.cons {
		ts := make([]Term, len(c.terms))
		copy(ts, c.terms)
		q.cons[i] = constraint{name: c.name, terms: ts, sense: c.sense, rhs: c.rhs}
	}
	return q
}

// Solution is the result of a solve.
type Solution struct {
	Status    Status
	Objective float64
	X         []float64 // values of the original variables
}

const (
	tolPivot = 1e-9
	tolZero  = 1e-9
	tolFeas  = 1e-7
)

// ctxCheckPivots is how many simplex pivots run between two checks of the
// solve's context.
const ctxCheckPivots = 64

// Solve runs two-phase simplex and returns the solution. Only
// StatusOptimal solutions carry meaningful X and Objective. The context is
// checked every ctxCheckPivots pivots; a cancelled solve returns its error.
func (p *Problem) Solve(ctx context.Context) (*Solution, error) {
	for _, v := range p.vars {
		if v.lo > v.hi {
			return &Solution{Status: StatusInfeasible}, nil
		}
	}
	std, err := p.toStandard()
	if err != nil {
		return nil, err
	}
	status, err := std.run(ctx)
	if err != nil {
		return nil, err
	}
	sol := &Solution{Status: status}
	if status != StatusOptimal {
		return sol, nil
	}
	sol.X = std.extract(p)
	obj := 0.0
	for i, v := range p.vars {
		obj += v.obj * sol.X[i]
	}
	sol.Objective = obj
	return sol, nil
}

// standard holds the Phase-1/Phase-2 tableau in computational standard form:
// min cᵀx, A x = b, x ≥ 0, b ≥ 0.
type standard struct {
	m, n    int
	a       [][]float64 // m rows, n cols
	b       []float64
	c       []float64 // phase-2 costs
	basis   []int
	nArt    int // number of artificial columns (last nArt columns)
	maxIter int

	// mapping back to original variables: for original var i,
	// value = sign[i]*x[col[i]] + shift[i]  (col -1 means fixed at shift).
	col   []int
	sign  []float64
	shift []float64
	// free variables use a second column with negative sign.
	negCol []int
}

// toStandard rewrites the problem into standard form.
//
// Variable rewriting:
//   - lo finite:            x = lo + u, u ≥ 0; if hi finite add row u ≤ hi-lo
//   - lo = -inf, hi finite: x = hi - u, u ≥ 0
//   - free:                 x = u - w, u, w ≥ 0
func (p *Problem) toStandard() (*standard, error) {
	nv := len(p.vars)
	s := &standard{
		col:    make([]int, nv),
		sign:   make([]float64, nv),
		shift:  make([]float64, nv),
		negCol: make([]int, nv),
	}
	for i := range s.negCol {
		s.negCol[i] = -1
	}
	ncols := 0
	type ubRow struct {
		col int
		ub  float64
	}
	var ubRows []ubRow
	for i, v := range p.vars {
		switch {
		case v.lo == v.hi:
			s.col[i] = -1
			s.sign[i] = 0
			s.shift[i] = v.lo
		case !math.IsInf(v.lo, -1):
			s.col[i] = ncols
			s.sign[i] = 1
			s.shift[i] = v.lo
			if !math.IsInf(v.hi, 1) {
				ubRows = append(ubRows, ubRow{ncols, v.hi - v.lo})
			}
			ncols++
		case !math.IsInf(v.hi, 1):
			s.col[i] = ncols
			s.sign[i] = -1
			s.shift[i] = v.hi
			ncols++
		default: // free
			s.col[i] = ncols
			s.sign[i] = 1
			s.shift[i] = 0
			s.negCol[i] = ncols + 1
			ncols += 2
		}
	}
	structCols := ncols

	// Row construction. Each constraint contributes one row; upper bounds
	// contribute one row each. Slack columns appended after structurals.
	type row struct {
		coefs []float64 // len structCols
		rhs   float64
		sense Sense
	}
	rows := make([]row, 0, len(p.cons)+len(ubRows))
	costs := make([]float64, structCols)
	for i, v := range p.vars {
		if s.col[i] < 0 || v.obj == 0 {
			continue
		}
		costs[s.col[i]] += v.obj * s.sign[i]
		if s.negCol[i] >= 0 {
			costs[s.negCol[i]] -= v.obj
		}
	}
	for _, c := range p.cons {
		r := row{coefs: make([]float64, structCols), rhs: c.rhs, sense: c.sense}
		for _, t := range c.terms {
			i := t.Var
			if s.col[i] < 0 {
				r.rhs -= t.Coef * s.shift[i]
				continue
			}
			r.coefs[s.col[i]] += t.Coef * s.sign[i]
			if s.negCol[i] >= 0 {
				r.coefs[s.negCol[i]] -= t.Coef
			}
			r.rhs -= t.Coef * s.shift[i]
		}
		rows = append(rows, r)
	}
	for _, ub := range ubRows {
		r := row{coefs: make([]float64, structCols), rhs: ub.ub, sense: LE}
		r.coefs[ub.col] = 1
		rows = append(rows, r)
	}

	m := len(rows)
	// Count slack columns: one for every LE/GE row.
	nSlack := 0
	for _, r := range rows {
		if r.sense != EQ {
			nSlack++
		}
	}
	// Worst case every row needs an artificial.
	total := structCols + nSlack + m
	a := make([][]float64, m)
	b := make([]float64, m)
	basis := make([]int, m)
	for i := range basis {
		basis[i] = -1
	}
	slackAt := structCols
	for ri, r := range rows {
		a[ri] = make([]float64, total)
		copy(a[ri], r.coefs)
		rhs := r.rhs
		sl := 0.0
		switch r.sense {
		case LE:
			sl = 1
		case GE:
			sl = -1
		}
		var slCol = -1
		if sl != 0 {
			slCol = slackAt
			a[ri][slCol] = sl
			slackAt++
		}
		if rhs < 0 {
			for j := range a[ri] {
				a[ri][j] = -a[ri][j]
			}
			rhs = -rhs
		}
		b[ri] = rhs
		// Slack usable as initial basis only if its coefficient is +1 now.
		if slCol >= 0 && a[ri][slCol] == 1 {
			basis[ri] = slCol
		}
	}
	artAt := structCols + nSlack
	nArt := 0
	for ri := range rows {
		if basis[ri] >= 0 {
			continue
		}
		c := artAt + nArt
		a[ri][c] = 1
		basis[ri] = c
		nArt++
	}
	total = artAt + nArt
	for ri := range a {
		a[ri] = a[ri][:total]
	}

	s.m, s.n = m, total
	s.a, s.b, s.basis = a, b, basis
	s.nArt = nArt
	s.c = make([]float64, total)
	copy(s.c, costs)
	s.maxIter = p.MaxIter
	if s.maxIter == 0 {
		s.maxIter = 200 * (m + total + 10)
	}
	return s, nil
}

// run executes the two phases and returns the final status, or the
// context's error when it is cancelled mid-solve.
func (s *standard) run(ctx context.Context) (Status, error) {
	if s.nArt > 0 {
		phase1 := make([]float64, s.n)
		for j := s.n - s.nArt; j < s.n; j++ {
			phase1[j] = 1
		}
		st, obj, err := s.simplex(ctx, phase1)
		if err != nil || st == StatusIterLimit {
			return st, err
		}
		if obj > tolFeas {
			return StatusInfeasible, nil
		}
		s.purgeArtificials()
	}
	st, _, err := s.simplex(ctx, s.c)
	return st, err
}

// purgeArtificials pivots basic artificials out (or detects redundant rows)
// and deletes the artificial columns.
func (s *standard) purgeArtificials() {
	firstArt := s.n - s.nArt
	for ri := 0; ri < s.m; ri++ {
		if s.basis[ri] < firstArt {
			continue
		}
		// Try to pivot in any structural/slack column with nonzero entry.
		pivoted := false
		for j := 0; j < firstArt; j++ {
			if math.Abs(s.a[ri][j]) > tolPivot {
				s.pivot(ri, j)
				pivoted = true
				break
			}
		}
		if !pivoted {
			// Row is redundant (all zero outside artificials): zero it out.
			for j := range s.a[ri] {
				s.a[ri][j] = 0
			}
			s.b[ri] = 0
			// Keep the artificial basic at level 0; cost forces it to stay 0.
			// Mark by basis = -1 so extraction/pricing skips the row.
			s.basis[ri] = -1
		}
	}
	// Drop artificial columns.
	for ri := 0; ri < s.m; ri++ {
		s.a[ri] = s.a[ri][:firstArt]
	}
	s.c = s.c[:firstArt]
	s.n = firstArt
	s.nArt = 0
}

// simplex minimizes cost over the current tableau. It returns the status and
// the objective value reached, or the context's error, checked every
// ctxCheckPivots pivots.
func (s *standard) simplex(ctx context.Context, cost []float64) (Status, float64, error) {
	y := make([]float64, s.m) // simplex multipliers via basis costs (computed per iter, dense)
	for iter := 0; iter < s.maxIter; iter++ {
		if iter%ctxCheckPivots == 0 {
			if err := ctx.Err(); err != nil {
				return 0, 0, err
			}
		}
		// Reduced costs: rc_j = c_j - Σ_i cB_i * a_ij. We maintain the
		// tableau in product form (fully eliminated), so basic columns are
		// unit vectors and rc_j = c_j - Σ over rows of cB_row * a[row][j].
		for i := 0; i < s.m; i++ {
			if s.basis[i] >= 0 {
				y[i] = cost[s.basis[i]]
			} else {
				y[i] = 0
			}
		}
		enter := -1
		best := -tolZero
		bland := iter > s.maxIter/2
		for j := 0; j < s.n; j++ {
			if isBasic(s.basis, j) {
				continue
			}
			rc := cost[j]
			for i := 0; i < s.m; i++ {
				if y[i] != 0 {
					rc -= y[i] * s.a[i][j]
				}
			}
			if rc < -tolZero {
				if bland {
					enter = j
					break
				}
				if rc < best {
					best = rc
					enter = j
				}
			}
		}
		if enter < 0 {
			// Optimal. Objective = Σ cB_i b_i.
			obj := 0.0
			for i := 0; i < s.m; i++ {
				if s.basis[i] >= 0 {
					obj += cost[s.basis[i]] * s.b[i]
				}
			}
			return StatusOptimal, obj, nil
		}
		// Ratio test.
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < s.m; i++ {
			if s.basis[i] < 0 {
				continue
			}
			aij := s.a[i][enter]
			if aij > tolPivot {
				ratio := s.b[i] / aij
				if ratio < bestRatio-tolZero ||
					(ratio < bestRatio+tolZero && leave >= 0 && s.basis[i] < s.basis[leave]) {
					bestRatio = ratio
					leave = i
				}
			}
		}
		if leave < 0 {
			return StatusUnbounded, math.Inf(-1), nil
		}
		s.pivot(leave, enter)
	}
	return StatusIterLimit, 0, nil
}

// pivot makes column enter basic in row r.
func (s *standard) pivot(r, enter int) {
	pa := s.a[r][enter]
	inv := 1 / pa
	row := s.a[r]
	for j := range row {
		row[j] *= inv
	}
	s.b[r] *= inv
	row[enter] = 1 // exact
	for i := 0; i < s.m; i++ {
		if i == r {
			continue
		}
		f := s.a[i][enter]
		if f == 0 {
			continue
		}
		ai := s.a[i]
		for j := range ai {
			ai[j] -= f * row[j]
		}
		ai[enter] = 0 // exact
		s.b[i] -= f * s.b[r]
		if s.b[i] < 0 && s.b[i] > -tolZero {
			s.b[i] = 0
		}
	}
	s.basis[r] = enter
}

// extract recovers original variable values from the tableau.
func (s *standard) extract(p *Problem) []float64 {
	xstd := make([]float64, s.n)
	for i := 0; i < s.m; i++ {
		if s.basis[i] >= 0 {
			xstd[s.basis[i]] = s.b[i]
		}
	}
	out := make([]float64, len(p.vars))
	for i := range p.vars {
		if s.col[i] < 0 {
			out[i] = s.shift[i]
			continue
		}
		v := s.sign[i]*xstd[s.col[i]] + s.shift[i]
		if s.negCol[i] >= 0 {
			v -= xstd[s.negCol[i]]
		}
		// Clamp round-off outside bounds.
		if lo := p.vars[i].lo; v < lo {
			v = lo
		}
		if hi := p.vars[i].hi; v > hi {
			v = hi
		}
		out[i] = v
	}
	return out
}

func isBasic(basis []int, j int) bool {
	for _, b := range basis {
		if b == j {
			return true
		}
	}
	return false
}

// Eval computes the objective value of the problem at point x (in original
// variable space), useful for verification in tests.
func (p *Problem) Eval(x []float64) (float64, error) {
	if len(x) != len(p.vars) {
		return 0, errors.New("lp: eval dimension mismatch")
	}
	obj := 0.0
	for i, v := range p.vars {
		obj += v.obj * x[i]
	}
	return obj, nil
}

// Feasible reports whether x satisfies all constraints and bounds within tol.
func (p *Problem) Feasible(x []float64, tol float64) bool {
	if len(x) != len(p.vars) {
		return false
	}
	for i, v := range p.vars {
		if x[i] < v.lo-tol || x[i] > v.hi+tol {
			return false
		}
	}
	for _, c := range p.cons {
		s := 0.0
		for _, t := range c.terms {
			s += t.Coef * x[t.Var]
		}
		switch c.sense {
		case LE:
			if s > c.rhs+tol {
				return false
			}
		case GE:
			if s < c.rhs-tol {
				return false
			}
		case EQ:
			if math.Abs(s-c.rhs) > tol {
				return false
			}
		}
	}
	return true
}

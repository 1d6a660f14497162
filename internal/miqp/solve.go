package miqp

import (
	"fmt"
	"math"
)

// Status reports how a solve ended.
type Status int

const (
	// Optimal means the search proved optimality.
	Optimal Status = iota
	// Infeasible means no binary point satisfies the constraints.
	Infeasible
	// NodeLimit means the search hit its node budget; the incumbent (if
	// any) is feasible but unproven.
	NodeLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	default:
		return "node-limit"
	}
}

// Solution is the result of a solve.
type Solution struct {
	X         []float64
	Objective float64
	Status    Status
	Nodes     int // branch-and-bound nodes explored
}

// Options tunes Solve.
type Options struct {
	// MaxNodes bounds the search (default 1 << 20).
	MaxNodes int
}

const feasTol = 1e-6

// Solve minimizes the 0-1 quadratic program by QCR convexification and
// depth-first branch-and-bound. Lower bounds come from minimizing the
// convexified objective over the [0,1] box with fixed variables honored
// (dropping the linear constraints — a relaxation, hence a valid bound);
// partial assignments are pruned by interval feasibility of each
// constraint.
func Solve(pr *Problem, opts Options) (*Solution, error) {
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	if opts.MaxNodes <= 0 {
		opts.MaxNodes = 1 << 20
	}
	conv, _ := Convexify(pr)

	s := &solver{orig: pr, conv: conv, maxNodes: opts.MaxNodes}
	s.best = math.Inf(1)
	s.relax = make([]float64, pr.N)
	s.grad = make([]float64, pr.N)
	s.xtmp = make([]float64, pr.N)
	// The projected-gradient step 1/(2·λmax bound) depends only on the
	// convexified Q, which never changes during the search — compute it
	// once instead of per node.
	s.step = 1.0
	if conv.Q != nil {
		s.spans = nonZeroSpans(conv.Q)
		lip := 0.0
		for i := range conv.Q {
			r := 0.0
			for j := range conv.Q[i] {
				r += math.Abs(conv.Q[i][j])
			}
			if v := 2 * r; v > lip {
				lip = v
			}
		}
		if lip > 0 {
			s.step = 1 / lip
		}
	}
	fixed := make([]int8, pr.N) // -1 free, 0, 1
	for i := range fixed {
		fixed[i] = -1
	}
	s.branch(fixed)

	sol := &Solution{Nodes: s.nodes}
	switch {
	case s.bestX == nil && s.nodes >= s.maxNodes:
		sol.Status = NodeLimit
	case s.bestX == nil:
		sol.Status = Infeasible
	case s.nodes >= s.maxNodes:
		sol.Status = NodeLimit
		sol.X = s.bestX
		sol.Objective = s.best
	default:
		sol.Status = Optimal
		sol.X = s.bestX
		sol.Objective = s.best
	}
	return sol, nil
}

type solver struct {
	orig, conv *Problem
	best       float64
	bestX      []float64
	nodes      int
	maxNodes   int
	step       float64  // projected-gradient step, 1/Lipschitz
	spans      [][2]int // non-zero column range of each row of conv.Q
	// Per-node scratch. relax is only read between a node's own
	// lowerBound call and its first recursive branch, so one shared
	// buffer serves the whole depth-first search; xtmp holds complete
	// assignments, copied into bestX only on incumbent improvement.
	relax []float64
	grad  []float64
	xtmp  []float64
}

func (s *solver) branch(fixed []int8) {
	if s.nodes >= s.maxNodes {
		return
	}
	s.nodes++

	if !s.partialFeasible(fixed) {
		return
	}
	bound, relax := s.lowerBound(fixed)
	if bound >= s.best-1e-12 {
		return
	}

	// Pick the most fractional free variable from the relaxation.
	branchVar, bestFrac := -1, -1.0
	complete := true
	for j, f := range fixed {
		if f >= 0 {
			continue
		}
		complete = false
		frac := 0.5 - math.Abs(relax[j]-0.5)
		if frac > bestFrac {
			bestFrac, branchVar = frac, j
		}
	}
	if complete {
		x := s.xtmp
		for j, f := range fixed {
			x[j] = float64(f)
		}
		if !s.orig.Feasible(x, feasTol) {
			return
		}
		obj := s.orig.Objective(x)
		if obj < s.best {
			s.best = obj
			s.bestX = append(s.bestX[:0], x...)
		}
		return
	}

	// Dive toward the relaxation's preference first.
	first, second := int8(1), int8(0)
	if relax[branchVar] < 0.5 {
		first, second = 0, 1
	}
	fixed[branchVar] = first
	s.branch(fixed)
	fixed[branchVar] = second
	s.branch(fixed)
	fixed[branchVar] = -1
}

// partialFeasible checks whether any completion of fixed can satisfy the
// linear constraints, using interval bounds of each row.
func (s *solver) partialFeasible(fixed []int8) bool {
	for _, c := range s.orig.Ineq {
		lo := rowRangeLo(c.A, fixed)
		if lo > c.B+feasTol {
			return false
		}
	}
	for _, c := range s.orig.Eq {
		lo := rowRangeLo(c.A, fixed)
		hi := rowRangeHi(c.A, fixed)
		if lo > c.B+feasTol || hi < c.B-feasTol {
			return false
		}
	}
	return true
}

func rowRangeLo(a []float64, fixed []int8) float64 {
	v := 0.0
	for j, aj := range a {
		switch {
		case fixed[j] >= 0:
			v += aj * float64(fixed[j])
		case aj < 0:
			v += aj
		}
	}
	return v
}

func rowRangeHi(a []float64, fixed []int8) float64 {
	v := 0.0
	for j, aj := range a {
		switch {
		case fixed[j] >= 0:
			v += aj * float64(fixed[j])
		case aj > 0:
			v += aj
		}
	}
	return v
}

// lowerBound minimizes the convexified objective over the box with fixed
// variables pinned, by projected gradient descent. The box relaxation
// drops the linear constraints, so the value is a valid lower bound for
// every completion of fixed. It also returns the relaxation point for
// branching guidance.
func (s *solver) lowerBound(fixed []int8) (float64, []float64) {
	x := s.relax
	for j := range x {
		if fixed[j] >= 0 {
			x[j] = float64(fixed[j])
		} else {
			x[j] = 0.5
		}
	}
	if s.conv.Q == nil {
		// Linear objective: minimized at the box corner per sign.
		for j := range x {
			if fixed[j] >= 0 {
				continue
			}
			if s.conv.P[j] >= 0 {
				x[j] = 0
			} else {
				x[j] = 1
			}
		}
		return s.conv.Objective(x), x
	}
	step := s.step
	grad := s.grad
	for it := 0; it < 300; it++ {
		moved := 0.0
		for i := range grad {
			g := s.conv.P[i]
			lo, hi := s.spans[i][0], s.spans[i][1]
			xs := x[lo:hi]
			for j, q := range s.conv.Q[i][lo:hi] {
				g += 2 * q * xs[j]
			}
			grad[i] = g
		}
		for j := range x {
			if fixed[j] >= 0 {
				continue
			}
			nx := x[j] - step*grad[j]
			if nx < 0 {
				nx = 0
			} else if nx > 1 {
				nx = 1
			}
			moved += math.Abs(nx - x[j])
			x[j] = nx
		}
		if moved < 1e-12 {
			break
		}
	}
	// Guard the bound against residual optimization error.
	val := s.conv.Objective(x)
	return val - 1e-9*(1+math.Abs(val)), x
}

// BruteForce enumerates all 2^N binary points (N ≤ 26) and returns the
// feasible minimizer; used to cross-check Solve.
func BruteForce(pr *Problem) (*Solution, error) {
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	if pr.N > 26 {
		return nil, fmt.Errorf("miqp: brute force limited to 26 variables, got %d", pr.N)
	}
	best := math.Inf(1)
	var bestX []float64
	x := make([]float64, pr.N)
	total := 1 << pr.N
	for mask := 0; mask < total; mask++ {
		for j := 0; j < pr.N; j++ {
			if mask&(1<<j) != 0 {
				x[j] = 1
			} else {
				x[j] = 0
			}
		}
		if !pr.Feasible(x, feasTol) {
			continue
		}
		if obj := pr.Objective(x); obj < best {
			best = obj
			bestX = append([]float64(nil), x...)
		}
	}
	if bestX == nil {
		return &Solution{Status: Infeasible, Nodes: total}, nil
	}
	return &Solution{X: bestX, Objective: best, Status: Optimal, Nodes: total}, nil
}

// SolveOneHot is a convenience for the paper's per-lambda subproblem: a
// one-hot selection (Σx = 1) among N options with per-option quadratic
// and linear coefficients, where option j may be forbidden. It solves
// exactly by scanning and returns the chosen index, or -1 when every
// option is forbidden. Used as a fast path and as an oracle in tests.
func SolveOneHot(q, p []float64, allowed []bool) (int, float64) {
	best, bestVal := -1, math.Inf(1)
	for j := range p {
		if allowed != nil && !allowed[j] {
			continue
		}
		v := p[j]
		if q != nil {
			v += q[j]
		}
		if v < bestVal {
			best, bestVal = j, v
		}
	}
	return best, bestVal
}

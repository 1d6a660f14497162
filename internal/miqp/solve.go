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
// depth-first branch-and-bound. Each row's minimum and maximum activity
// over the completions of the fixed variables is kept up to date as
// variables are fixed and restored on backtrack. At every node the rows
// are propagated to a fixpoint: a free variable whose other value would
// push an activity past its bound is fixed, and a row no completion can
// meet closes the node. A node propagation completes is scored directly;
// any other is bounded by the box relaxation of the convexified
// objective (the rows dropped, so a relaxation) and branched on its most
// fractional variable.
func Solve(pr *Problem, opts Options) (*Solution, error) {
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	if opts.MaxNodes <= 0 {
		opts.MaxNodes = 1 << 20
	}
	conv, _ := Convexify(pr)

	n := pr.N
	s := &solver{orig: pr, conv: conv, maxNodes: opts.MaxNodes}
	s.best = math.Inf(1)
	// One block holds the per-node vectors, the rows' activities and
	// their snapshots, of which at most n are taken at once.
	m := len(pr.Ineq) + len(pr.Eq)
	buf := make([]float64, 3*n+2*m*(n+1))
	s.relax, s.grad, s.xtmp = buf[:n], buf[n:2*n], buf[2*n:3*n]
	s.act, s.saved = buf[3*n:3*n:3*n+2*m], buf[3*n+2*m:3*n+2*m]
	ints := make([]int, 2*n)
	s.trail, s.idx = ints[:0:n], ints[n:n]
	s.fixed = make([]int8, n) // -1 free, 0, 1
	for i := range s.fixed {
		s.fixed[i] = -1
	}
	s.rows = make([]row, 0, m)
	for k, cs := range [2][]LinConstraint{pr.Ineq, pr.Eq} {
		for _, c := range cs {
			r := row{a: c.A, b: c.B, eq: k == 1}
			lo, hi, sum := 0.0, 0.0, math.Abs(c.B)
			for _, a := range c.A {
				lo += math.Min(a, 0)
				hi += math.Max(a, 0)
				sum += math.Abs(a)
			}
			r.tol = feasTol + 4*float64(len(c.A)+1)*0x1p-52*sum
			s.rows = append(s.rows, r)
			s.act = append(s.act, lo, hi)
		}
	}
	// The projected-gradient step is 1/L for L = 2·max_i Σ_j |Q_ij|, a
	// Lipschitz constant of the gradient: Q is PSD once convexified, so
	// its diagonal is non-negative and Gershgorin's upper bound is that
	// row sum. Q never changes during the search, so neither does L.
	s.step = 1.0
	if conv.Q != nil {
		s.spans = nonZeroSpans(conv.Q)
		if _, hi := gershgorin(conv.Q); hi > 0 {
			// Finite even when hi is subnormal, or Inf·0 would be NaN.
			s.step = math.Min(1/(2*hi), math.MaxFloat64)
		}
	}
	s.branch()

	sol := &Solution{X: s.bestX, Status: Optimal, Nodes: s.nodes}
	if s.bestX != nil {
		sol.Objective = s.best
	}
	switch {
	case s.nodes >= s.maxNodes:
		sol.Status = NodeLimit
	case s.bestX == nil:
		sol.Status = Infeasible
	}
	return sol, nil
}

// row is one constraint a·x ≤ b (or = b when eq). tol is feasTol plus
// a bound on how far an activity summed along the search path (at most
// 2n additions) and Feasible's fresh dot(a, x) (n more) can round apart,
// each addition erring by at most 2⁻⁵³ of a partial sum no larger than
// Σ|a_j| + |b|: propagation never cuts off a point Feasible accepts.
type row struct {
	a   []float64
	b   float64
	tol float64
	eq  bool
}

type solver struct {
	orig, conv *Problem
	best       float64
	bestX      []float64
	nodes      int
	maxNodes   int
	step       float64  // projected-gradient step, 1/Lipschitz
	spans      [][2]int // non-zero column range of each row of conv.Q
	rows       []row    // Ineq, then Eq
	// Search state: fixed[j] is -1 (free), 0 or 1; act[2r] and act[2r+1]
	// are row r's minimum and maximum activity over completions of the
	// fixed variables. trail lists the fixed variables in fixing order
	// and saved the act snapshots of the open children, so a backtrack
	// restores both exactly.
	fixed []int8
	act   []float64
	trail []int
	saved []float64
	// Per-node scratch. relax is only read between a node's own
	// lowerBound call and its first recursive branch, so one shared
	// buffer serves the whole depth-first search; xtmp holds complete
	// assignments, copied into bestX only on incumbent improvement.
	relax []float64
	grad  []float64
	xtmp  []float64
	idx   []int // the free variables, listed by lowerBound
}

func (s *solver) branch() {
	if s.nodes >= s.maxNodes {
		return
	}
	s.nodes++

	if !s.propagate() {
		return
	}
	if len(s.trail) == len(s.fixed) {
		s.score()
		return
	}
	bound, relax := s.lowerBound()
	if bound >= s.best-1e-12 {
		return
	}

	// Pick the most fractional free variable from the relaxation.
	branchVar, bestFrac := -1, -1.0
	for _, j := range s.idx {
		frac := 0.5 - math.Abs(relax[j]-0.5)
		if frac > bestFrac {
			bestFrac, branchVar = frac, j
		}
	}

	// Dive toward the relaxation's preference first.
	first := int8(1)
	if relax[branchVar] < 0.5 {
		first = 0
	}
	for _, v := range [2]int8{first, 1 - first} {
		mark, saved := len(s.trail), len(s.saved)
		s.saved = append(s.saved, s.act...)
		s.fix(branchVar, v)
		s.branch()
		for _, j := range s.trail[mark:] {
			s.fixed[j] = -1
		}
		s.trail = s.trail[:mark]
		copy(s.act, s.saved[saved:])
		s.saved = s.saved[:saved]
	}
}

// fix sets free variable j to v and narrows every row's activity range:
// the row moves by d = a (v = 1) or −a (v = 0), a positive d raising the
// minimum and a negative one lowering the maximum.
func (s *solver) fix(j int, v int8) {
	s.fixed[j] = v
	s.trail = append(s.trail, j)
	for r := range s.rows {
		a := s.rows[r].a[j]
		if v == 0 {
			a = -a
		}
		if a > 0 {
			s.act[2*r] += a
		} else {
			s.act[2*r+1] += a
		}
	}
}

// propagate fixes every free variable whose other value would push a
// row's activity past its bound, until no row forces another. It
// returns false when some row cannot be met by any completion.
func (s *solver) propagate() bool {
	for changed := true; changed; {
		changed = false
		for r := range s.rows {
			c := &s.rows[r]
			// Room above the minimum activity, and for an equality below
			// the maximum.
			up := c.b + c.tol - s.act[2*r]
			down := math.Inf(1)
			if c.eq {
				down = s.act[2*r+1] - (c.b - c.tol)
			}
			if up < 0 || down < 0 {
				return false
			}
			for j, a := range c.a {
				if s.fixed[j] >= 0 {
					continue
				}
				// x = 1 raises the minimum by a > 0 or lowers the
				// maximum by −a > 0; x = 0 does the opposite.
				switch {
				case a > up || -a > down:
					s.fix(j, 0)
				case -a > up || a > down:
					s.fix(j, 1)
				default:
					continue
				}
				changed = true
			}
		}
	}
	return true
}

// score checks a complete assignment against the rows and makes it the
// incumbent if it improves on it.
func (s *solver) score() {
	x := s.xtmp
	for j, f := range s.fixed {
		x[j] = float64(f)
	}
	if !s.orig.Feasible(x, feasTol) {
		return
	}
	if obj := s.orig.Objective(x); obj < s.best {
		s.best = obj
		s.bestX = append(s.bestX[:0], x...)
	}
}

// lowerBound minimizes the convexified objective f over the box with
// fixed variables pinned, by projected gradient descent, and returns a
// lower bound on f over that box together with the last iterate for
// branching guidance. The bound is Frank–Wolfe's: for convex f and any
// iterate x with gradient g, f(y) ≥ f(x) + g·(y − x) for every y in the
// box, and the right side is smallest at a corner, so
// f(x) + Σ_free min(−g_j·x_j, g_j·(1 − x_j)) holds however far the
// iteration got. The box drops the rows, so the bound holds for every
// completion of the fixed variables.
func (s *solver) lowerBound() (float64, []float64) {
	x := s.relax
	free := s.idx[:0]
	for j, f := range s.fixed {
		if f >= 0 {
			x[j] = float64(f)
		} else {
			x[j] = 0.5
			free = append(free, j)
		}
	}
	s.idx = free
	if s.conv.Q == nil {
		// Linear objective: minimized at the box corner per sign.
		for _, j := range free {
			if s.conv.P[j] >= 0 {
				x[j] = 0
			} else {
				x[j] = 1
			}
		}
		return s.conv.Objective(x), x
	}
	grad := s.grad
	for it := 0; it < 300; it++ {
		s.gradient(x)
		moved := 0.0
		for _, j := range free {
			nx := x[j] - s.step*grad[j]
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
	s.gradient(x)
	val := s.conv.Objective(x)
	for _, j := range free {
		val += math.Min(-grad[j]*x[j], grad[j]*(1-x[j]))
	}
	// Guard the bound against rounding.
	return val - 1e-9*(1+math.Abs(val)), x
}

// gradient stores the free coordinates of ∇f(x) = P + 2Qx, f the
// convexified objective, in grad.
func (s *solver) gradient(x []float64) {
	for _, i := range s.idx {
		g := s.conv.P[i]
		lo, hi := s.spans[i][0], s.spans[i][1]
		xs := x[lo:hi]
		for j, q := range s.conv.Q[i][lo:hi] {
			g += 2 * q * xs[j]
		}
		s.grad[i] = g
	}
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

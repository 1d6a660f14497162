// Package miqp solves the 0-1 quadratic programs at the heart of the
// paper's formulation (Eq. 12–23): minimize x'Qx + p'x over binary x
// subject to linear constraints. Following the paper's solution path, a
// non-convex objective is first made convex with the QCR diagonal
// perturbation μ(x_j² − x_j) — which vanishes on binary points, so the
// reformulation is exact — and the convexified problem is solved by
// branch-and-bound that propagates the constraint rows and bounds nodes
// by the box relaxation. A brute-force solver cross-checks the search.
package miqp

import (
	"fmt"
	"math"
)

// LinConstraint is one linear row: A·x (≤ or =) B.
type LinConstraint struct {
	A []float64
	B float64
}

// Problem is a 0-1 quadratic program:
//
//	minimize   x'Qx + P'x
//	subject to Ineq: a'x ≤ b,  Eq: a'x = b,  x ∈ {0,1}^N
type Problem struct {
	N    int
	Q    [][]float64 // symmetric N×N; nil means all-zero (pure linear)
	P    []float64   // length N
	Ineq []LinConstraint
	Eq   []LinConstraint
}

// Validate checks dimensions and symmetry.
func (pr *Problem) Validate() error {
	if pr.N <= 0 {
		return fmt.Errorf("miqp: N = %d", pr.N)
	}
	if len(pr.P) != pr.N {
		return fmt.Errorf("miqp: len(P) = %d, want %d", len(pr.P), pr.N)
	}
	if pr.Q != nil {
		if len(pr.Q) != pr.N {
			return fmt.Errorf("miqp: Q is %d×?, want %d×%d", len(pr.Q), pr.N, pr.N)
		}
		for i, row := range pr.Q {
			if len(row) != pr.N {
				return fmt.Errorf("miqp: Q row %d has %d entries", i, len(row))
			}
			for j := range row {
				if math.Abs(pr.Q[i][j]-pr.Q[j][i]) > 1e-9*(1+math.Abs(pr.Q[i][j])) {
					return fmt.Errorf("miqp: Q not symmetric at (%d, %d)", i, j)
				}
			}
		}
	}
	for k, c := range pr.Ineq {
		if len(c.A) != pr.N {
			return fmt.Errorf("miqp: inequality %d has %d coefficients", k, len(c.A))
		}
	}
	for k, c := range pr.Eq {
		if len(c.A) != pr.N {
			return fmt.Errorf("miqp: equality %d has %d coefficients", k, len(c.A))
		}
	}
	return nil
}

// Objective evaluates x'Qx + P'x.
func (pr *Problem) Objective(x []float64) float64 {
	v := 0.0
	for j, xv := range x {
		v += pr.P[j] * xv
	}
	if pr.Q != nil {
		for i := range pr.Q {
			if x[i] == 0 {
				continue
			}
			row := pr.Q[i]
			for j := range row {
				v += x[i] * row[j] * x[j]
			}
		}
	}
	return v
}

// Feasible reports whether binary point x satisfies all constraints
// within tol.
func (pr *Problem) Feasible(x []float64, tol float64) bool {
	for _, c := range pr.Ineq {
		if dot(c.A, x) > c.B+tol {
			return false
		}
	}
	for _, c := range pr.Eq {
		if math.Abs(dot(c.A, x)-c.B) > tol {
			return false
		}
	}
	return true
}

func dot(a, x []float64) float64 {
	v := 0.0
	for i, av := range a {
		v += av * x[i]
	}
	return v
}

// nonZeroSpans returns, for each row of Q, the half-open column range
// [lo, hi) outside which the row is zero. The relaxation's gradient
// walks that range instead of the whole row: a skipped term is ±0, and
// adding it could change nothing in the sum but the sign of an exact
// zero. The planner's one-hot problems have a diagonal Q, so a row's
// range is a single column; a dense Q keeps the full-row loop.
func nonZeroSpans(Q [][]float64) [][2]int {
	spans := make([][2]int, len(Q))
	for i, row := range Q {
		lo, hi := 0, len(row)
		for lo < hi && row[lo] == 0 {
			lo++
		}
		for hi > lo && row[hi-1] == 0 {
			hi--
		}
		spans[i] = [2]int{lo, hi}
	}
	return spans
}

// gershgorin returns Gershgorin's bounds on the spectrum of symmetric Q:
// every eigenvalue lies in [min_i(Q_ii − r_i), max_i(Q_ii + r_i)] with
// r_i = Σ_{j≠i} |Q_ij|. For a diagonal Q both are exact.
func gershgorin(Q [][]float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for i, row := range Q {
		r := 0.0
		for j, q := range row {
			if i != j {
				r += math.Abs(q)
			}
		}
		lo = math.Min(lo, row[i]-r)
		hi = math.Max(hi, row[i]+r)
	}
	return lo, hi
}

// MinEigenvalue estimates the smallest eigenvalue of symmetric Q by
// shifted power iteration: λmin(Q) = σ − λmax(σI − Q) with σ a
// Gershgorin upper bound. A Rayleigh quotient never exceeds λmax, so
// the estimate errs on the large side — by up to ~4e-3 when the two
// lowest eigenvalues nearly coincide — and is not by itself a valid
// QCR shift; Convexify certifies the shift it derives from it.
func MinEigenvalue(Q [][]float64) float64 {
	n := len(Q)
	if n == 0 {
		return 0
	}
	_, sigma := gershgorin(Q)
	// Power iteration on M = σI − Q (PSD-ish, λmax(M) = σ − λmin(Q)).
	// Deterministic non-degenerate start: varying components avoid being
	// orthogonal to the dominant eigenvector for structured matrices.
	v := make([]float64, n)
	norm0 := 0.0
	for i := range v {
		v[i] = 1 + 0.37*float64(i%7) + 0.013*float64(i)
		norm0 += v[i] * v[i]
	}
	norm0 = math.Sqrt(norm0)
	for i := range v {
		v[i] /= norm0
	}
	mv := make([]float64, n)
	lambda := 0.0
	for it := 0; it < 500; it++ {
		for i := range mv {
			s := sigma * v[i]
			for j, q := range Q[i] {
				s -= q * v[j]
			}
			mv[i] = s
		}
		norm := 0.0
		for _, x := range mv {
			norm += x * x
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			return sigma // Q = σI exactly
		}
		newLambda := 0.0
		for i := range mv {
			newLambda += v[i] * mv[i]
			v[i] = mv[i] / norm
		}
		if it > 10 && math.Abs(newLambda-lambda) < 1e-12*(1+math.Abs(newLambda)) {
			lambda = newLambda
			break
		}
		lambda = newLambda
	}
	return sigma - lambda
}

// Convexify applies the QCR diagonal perturbation: it returns a problem
// with Q' = Q + μI and P' = P − μ·1. Since x_j² = x_j on binary points,
// the perturbed objective equals the original on every feasible solution
// while being convex, enabling the branch-and-bound relaxation bounds.
// μ = 0 when Gershgorin's lower bound shows Q is already PSD (exactly
// so for a diagonal Q), without any power iteration. Otherwise μ starts
// at −λmin's estimate and is raised by 1e-9, 4e-9, 1.6e-8, … until
// Q + μI has a Cholesky factorisation, but never past −min_i(Q_ii − r_i),
// at which Q + μI is diagonally dominant and so PSD. The chosen μ is
// also returned.
func Convexify(pr *Problem) (*Problem, float64) {
	if pr.Q == nil {
		return pr, 0
	}
	glo, _ := gershgorin(pr.Q)
	if glo >= 0 {
		return pr, 0
	}
	est := math.Max(0, -MinEigenvalue(pr.Q))
	mu := est
	for gap := 1e-9; !positiveDefinite(pr.Q, mu); gap *= 4 {
		if mu = est + gap; mu >= -glo {
			mu = -glo
			break
		}
	}
	if mu == 0 {
		return pr, 0
	}
	n := pr.N
	q := make([][]float64, n)
	for i := range q {
		q[i] = append([]float64(nil), pr.Q[i]...)
		q[i][i] += mu
	}
	p := append([]float64(nil), pr.P...)
	for i := range p {
		p[i] -= mu
	}
	return &Problem{N: n, Q: q, P: p, Ineq: pr.Ineq, Eq: pr.Eq}, mu
}

// positiveDefinite reports whether Q + μI has a Cholesky factorisation
// with every pivot positive.
func positiveDefinite(Q [][]float64, mu float64) bool {
	n := len(Q)
	l := make([]float64, n*n)
	for j := 0; j < n; j++ {
		lj := l[j*n : j*n+j]
		d := Q[j][j] + mu
		for _, v := range lj {
			d -= v * v
		}
		if !(d > 0) {
			return false
		}
		d = math.Sqrt(d)
		for i := j + 1; i < n; i++ {
			li := l[i*n : i*n+j]
			v := Q[i][j]
			for k, w := range li {
				v -= w * lj[k]
			}
			l[i*n+j] = v / d
		}
	}
	return true
}

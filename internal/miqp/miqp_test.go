package miqp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestValidate(t *testing.T) {
	good := &Problem{N: 2, P: []float64{1, 2}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Problem{
		{N: 0},
		{N: 2, P: []float64{1}},
		{N: 2, P: []float64{1, 2}, Q: [][]float64{{1, 2}}},
		{N: 2, P: []float64{1, 2}, Q: [][]float64{{1, 2}, {3, 1}}}, // asymmetric
		{N: 2, P: []float64{1, 2}, Ineq: []LinConstraint{{A: []float64{1}, B: 0}}},
	}
	for i, pr := range bad {
		if err := pr.Validate(); err == nil {
			t.Errorf("bad problem %d accepted", i)
		}
	}
}

func TestObjective(t *testing.T) {
	pr := &Problem{
		N: 2,
		Q: [][]float64{{1, 0.5}, {0.5, 2}},
		P: []float64{3, -1},
	}
	// x = (1,1): 1 + 0.5 + 0.5 + 2 + 3 - 1 = 6.
	if got := pr.Objective([]float64{1, 1}); math.Abs(got-6) > 1e-12 {
		t.Fatalf("objective = %v, want 6", got)
	}
	if got := pr.Objective([]float64{0, 0}); got != 0 {
		t.Fatalf("objective at origin = %v", got)
	}
}

func TestMinEigenvalue(t *testing.T) {
	cases := []struct {
		q    [][]float64
		want float64
	}{
		{[][]float64{{2, 0}, {0, 3}}, 2},
		{[][]float64{{-1, 0}, {0, 5}}, -1},
		{[][]float64{{0, 1}, {1, 0}}, -1}, // eigenvalues ±1
		{[][]float64{{4}}, 4},
	}
	for i, c := range cases {
		got := MinEigenvalue(c.q)
		if math.Abs(got-c.want) > 1e-6 {
			t.Errorf("case %d: λmin = %v, want %v", i, got, c.want)
		}
	}
}

func TestConvexifyPreservesBinaryObjective(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pr := randomProblem(rng, 6, true)
	conv, mu := Convexify(pr)
	if mu < 0 {
		t.Fatalf("negative μ %v", mu)
	}
	// Objectives must agree on all binary points.
	x := make([]float64, pr.N)
	for mask := 0; mask < 1<<pr.N; mask++ {
		for j := 0; j < pr.N; j++ {
			x[j] = float64((mask >> j) & 1)
		}
		a, b := pr.Objective(x), conv.Objective(x)
		if math.Abs(a-b) > 1e-6*(1+math.Abs(a)) {
			t.Fatalf("objectives diverge at %v: %v vs %v", x, a, b)
		}
	}
	// Convexified Q must be PSD.
	if conv.Q != nil {
		if l := MinEigenvalue(conv.Q); l < -1e-6 {
			t.Fatalf("convexified λmin = %v", l)
		}
	}
}

// The power-iteration estimate of λmin errs high when the two lowest
// eigenvalues nearly coincide, so −estimate + 1e-9 left Q + μI
// indefinite on every one of these matrices (by up to ~4e-3); the
// certified μ must cover the true λmin, known here by construction.
func TestConvexifyCertifiesNearDegenerateShift(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 200; k++ {
		q, lmin := nearDegenerate(rng)
		if est := MinEigenvalue(q); est < lmin-1e-9 {
			t.Fatalf("matrix %d: estimate %v below λmin %v", k, est, lmin)
		}
		_, mu := Convexify(&Problem{N: len(q), Q: q, P: make([]float64, len(q))})
		if mu+lmin < 0 {
			t.Fatalf("matrix %d (%d×%d): μ = %v leaves λmin(Q + μI) = %v", k, len(q), len(q), mu, mu+lmin)
		}
	}
}

// nearDegenerate returns a random symmetric 5–44-variable V·diag(λ)·V'
// (V orthonormal by Gram–Schmidt) whose two lowest eigenvalues lie within
// 1e-4 of each other, the rest within 1 above them, and its λmin.
func nearDegenerate(rng *rand.Rand) ([][]float64, float64) {
	n := 5 + rng.Intn(40)
	v := make([][]float64, n)
	for i := range v {
		v[i] = make([]float64, n)
		for j := range v[i] {
			v[i][j] = rng.NormFloat64()
		}
		for _, u := range v[:i] {
			d := dot(u, v[i])
			for j := range v[i] {
				v[i][j] -= d * u[j]
			}
		}
		norm := math.Sqrt(dot(v[i], v[i]))
		for j := range v[i] {
			v[i][j] /= norm
		}
	}
	lam := make([]float64, n)
	lam[0] = -(0.5 + rng.Float64())
	lam[1] = lam[0] + 1e-4*rng.Float64()
	for i := 2; i < n; i++ {
		lam[i] = lam[0] + rng.Float64()
	}
	q := make([][]float64, n)
	for i := range q {
		q[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := 0.0
			for k, u := range v {
				s += u[i] * lam[k] * u[j]
			}
			q[i][j], q[j][i] = s, s
		}
	}
	return q, lam[0]
}

func TestSolveUnconstrainedLinear(t *testing.T) {
	pr := &Problem{N: 3, P: []float64{1, -2, 0}}
	sol, err := Solve(pr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	// Optimal: x = (0,1,0), objective -2.
	if math.Abs(sol.Objective+2) > 1e-9 {
		t.Fatalf("objective %v, want -2", sol.Objective)
	}
	if sol.X[0] != 0 || sol.X[1] != 1 {
		t.Fatalf("x = %v", sol.X)
	}
}

func TestSolveOneHotConstraint(t *testing.T) {
	// Pick exactly one of three options; costs 5, 2, 7.
	pr := &Problem{
		N: 3, P: []float64{5, 2, 7},
		Eq: []LinConstraint{{A: []float64{1, 1, 1}, B: 1}},
	}
	sol, err := Solve(pr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || sol.Objective != 2 || sol.X[1] != 1 {
		t.Fatalf("sol = %+v", sol)
	}
}

func TestSolveInfeasible(t *testing.T) {
	pr := &Problem{
		N: 2, P: []float64{1, 1},
		Eq: []LinConstraint{{A: []float64{1, 1}, B: 3}}, // max is 2
	}
	sol, err := Solve(pr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status %v", sol.Status)
	}
}

func TestSolveNonConvexQuadratic(t *testing.T) {
	// Indefinite Q rewards picking both variables together.
	pr := &Problem{
		N: 2,
		Q: [][]float64{{0, -3}, {-3, 0}},
		P: []float64{1, 1},
	}
	sol, err := Solve(pr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// (1,1): -6 + 2 = -4 is the minimum.
	if sol.Status != Optimal || math.Abs(sol.Objective+4) > 1e-9 {
		t.Fatalf("sol = %+v", sol)
	}
}

func TestSolveWithKnapsackConstraint(t *testing.T) {
	// Maximize value (minimize negative) under weight ≤ 5.
	pr := &Problem{
		N: 4, P: []float64{-3, -4, -5, -6},
		Ineq: []LinConstraint{{A: []float64{2, 3, 4, 5}, B: 5}},
	}
	sol, err := Solve(pr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bf, _ := BruteForce(pr)
	if math.Abs(sol.Objective-bf.Objective) > 1e-9 {
		t.Fatalf("BnB %v vs brute force %v", sol.Objective, bf.Objective)
	}
}

func TestNodeLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pr := randomProblem(rng, 16, true)
	sol, err := Solve(pr, Options{MaxNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status == Optimal {
		t.Fatalf("3-node budget claimed optimality (nodes=%d)", sol.Nodes)
	}
}

func TestBruteForceLimits(t *testing.T) {
	if _, err := BruteForce(&Problem{N: 30, P: make([]float64, 30)}); err == nil {
		t.Fatal("oversized brute force accepted")
	}
}

// The central property: branch-and-bound agrees with brute force on
// random constrained non-convex instances, on the ill-conditioned
// diagonal family whose unconverged relaxations once cut off the optimum
// (seed 105 of it returned −0.632 against −1.907), and on rows whose
// bound sits right at the feasibility tolerance, where an activity
// summed along the search path and Feasible's fresh sum can round to
// opposite sides of b + 1e-6 (propagating at exactly 1e-6 reports seed 0
// infeasible) — every seed of both, so a search that is only sometimes
// unsound cannot slip through.
func TestSolveMatchesBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		pr := randomProblem(rng, n, rng.Intn(2) == 0)
		if err := matchesBruteForce(pr); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 2000; seed++ {
		if err := matchesBruteForce(illConditioned(seed)); err != nil {
			t.Fatalf("ill-conditioned seed %d: %v", seed, err)
		}
		if err := matchesBruteForce(onTolerance(seed)); err != nil {
			t.Fatalf("on-tolerance seed %d: %v", seed, err)
		}
	}
}

// matchesBruteForce solves pr both ways and reports a disagreement in
// status or objective.
func matchesBruteForce(pr *Problem) error {
	sol, err := Solve(pr, Options{})
	if err != nil {
		return err
	}
	bf, err := BruteForce(pr)
	if err != nil {
		return err
	}
	if sol.Status != bf.Status {
		return fmt.Errorf("status %v, brute force %v", sol.Status, bf.Status)
	}
	if bf.Status == Optimal && math.Abs(sol.Objective-bf.Objective) > 1e-6*(1+math.Abs(bf.Objective)) {
		return fmt.Errorf("objective %v at %v, brute force %v at %v", sol.Objective, sol.X, bf.Objective, bf.X)
	}
	return nil
}

// illConditioned draws a diagonal Q spanning six decades, so the
// relaxation's projected gradient is far from converged when its 300
// steps run out, and at random a cardinality row.
func illConditioned(seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	n := 3 + rng.Intn(6)
	q := make([][]float64, n)
	for i := range q {
		q[i] = make([]float64, n)
		q[i][i] = math.Pow(10, 6*rng.Float64()-1)
	}
	p := make([]float64, n)
	for i := range p {
		p[i] = 3 * rng.NormFloat64()
	}
	pr := &Problem{N: n, Q: q, P: p}
	if rng.Intn(2) == 0 {
		pr.Ineq = []LinConstraint{{A: ones(n), B: float64(1 + rng.Intn(n))}}
	}
	return pr
}

// onTolerance draws one row of tenths of either sign, an equality or an
// inequality, whose b lies feasTol (or one ulp less) below its activity
// at a random binary point the linear objective favours, so that point
// is feasible only up to the last bit of the tolerance.
func onTolerance(seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	n := 3 + rng.Intn(6)
	a, x, p := make([]float64, n), make([]float64, n), make([]float64, n)
	for j := range a {
		a[j] = float64(1+rng.Intn(9)) / 10 * float64(1-2*rng.Intn(2))
		if rng.Intn(2) == 0 {
			x[j], p[j] = 1, -1-rng.Float64()
		} else {
			p[j] = 0.01 * rng.Float64()
		}
	}
	b := dot(a, x) - feasTol
	if rng.Intn(2) == 0 {
		b = math.Nextafter(b, math.Inf(1))
	}
	pr := &Problem{N: n, P: p}
	if row := []LinConstraint{{A: a, B: b}}; rng.Intn(2) == 0 {
		pr.Eq = row
	} else {
		pr.Ineq = row
	}
	return pr
}

func ones(n int) []float64 {
	a := make([]float64, n)
	for i := range a {
		a[i] = 1
	}
	return a
}

// oneHotProblem is the planner's per-span QP over n memory blocks: a
// positive diagonal (execution cost), positive linear fees, Σx = 1.
func oneHotProblem(rng *rand.Rand, n int) *Problem {
	q := make([][]float64, n)
	p := make([]float64, n)
	for i := range q {
		q[i] = make([]float64, n)
		q[i][i] = 1e-6 * (1 + rng.Float64())
		p[i] = 2.4e-7 + 1e-7*rng.Float64()
	}
	return &Problem{N: n, Q: q, P: p, Eq: []LinConstraint{{A: ones(n), B: 1}}}
}

// Propagation completes a one-hot node as soon as one variable is set
// or one is left, so the search dives once and closes every sibling at
// once: 2n − 1 nodes, where bounds alone visited about n²/2. The same row
// negated (−Σx = −1) takes the same path through the negative-coefficient
// cases of both activities.
func TestSolveOneHotNodeCount(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		pr := oneHotProblem(rng, 44)
		diag := make([]float64, pr.N)
		for j := range diag {
			diag[j] = pr.Q[j][j]
		}
		best, bestVal := SolveOneHot(diag, pr.P, nil)
		neg := *pr
		neg.Eq = []LinConstraint{{A: make([]float64, pr.N), B: -1}}
		for j := range neg.Eq[0].A {
			neg.Eq[0].A[j] = -1
		}
		for _, pr := range []*Problem{pr, &neg} {
			sol, err := Solve(pr, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if sol.Status != Optimal || sol.X[best] != 1 || sol.Objective != bestVal {
				t.Fatalf("trial %d, row %v: %+v, want block %d at %v", trial, pr.Eq[0].A[0], sol, best, bestVal)
			}
			if sol.Nodes > 2*pr.N {
				t.Fatalf("trial %d, row %v: %d nodes for %d blocks, want ≤ %d", trial, pr.Eq[0].A[0], sol.Nodes, pr.N, 2*pr.N)
			}
		}
	}
}

func TestSolveOneHotHelper(t *testing.T) {
	q := []float64{1, 0, 2}
	p := []float64{4, 6, 1}
	idx, val := SolveOneHot(q, p, nil)
	if idx != 2 || val != 3 {
		t.Fatalf("one-hot = %d/%v", idx, val)
	}
	idx, _ = SolveOneHot(q, p, []bool{true, true, false})
	if idx != 0 {
		t.Fatalf("masked one-hot = %d", idx)
	}
	idx, _ = SolveOneHot(q, p, []bool{false, false, false})
	if idx != -1 {
		t.Fatal("all-forbidden should return -1")
	}
}

// randomProblem generates a small problem with an indefinite quadratic,
// a knapsack row with some negative coefficients and a second ≤ row of
// small mixed-sign integers; with withEq also a cardinality equality and
// a mixed-sign integer equality. The integer rows are drawn around a
// random binary point that meets the cardinality row, so they prune
// without making every instance infeasible.
func randomProblem(rng *rand.Rand, n int, withEq bool) *Problem {
	q := make([][]float64, n)
	for i := range q {
		q[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64() * 2
			q[i][j] = v
			q[j][i] = v
		}
	}
	p := make([]float64, n)
	a := make([]float64, n)
	for i := range p {
		p[i] = rng.NormFloat64() * 3
		a[i] = rng.Float64()*4 - 1
	}
	pr := &Problem{
		N: n, Q: q, P: p,
		Ineq: []LinConstraint{{A: a, B: rng.Float64() * float64(n)}},
	}
	card := 1 + rng.Intn(2)
	x0 := make([]float64, n)
	for _, j := range rng.Perm(n)[:card] {
		x0[j] = 1
	}
	intRow := func() []float64 {
		a := make([]float64, n)
		for i := range a {
			a[i] = float64(rng.Intn(5) - 2)
		}
		return a
	}
	a2 := intRow()
	pr.Ineq = append(pr.Ineq, LinConstraint{A: a2, B: dot(a2, x0) + float64(rng.Intn(2))})
	if withEq {
		a3 := intRow()
		pr.Eq = []LinConstraint{{A: ones(n), B: float64(card)}, {A: a3, B: dot(a3, x0)}}
	}
	return pr
}

func TestStatusStrings(t *testing.T) {
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" || NodeLimit.String() != "node-limit" {
		t.Fatal("status names wrong")
	}
}

func TestConvexifyLinearProblemNoop(t *testing.T) {
	pr := &Problem{N: 2, P: []float64{1, -1}}
	conv, mu := Convexify(pr)
	if conv != pr || mu != 0 {
		t.Fatal("linear problem perturbed")
	}
	psd := &Problem{N: 2, P: []float64{0, 0}, Q: [][]float64{{1, 0}, {0, 2}}}
	conv2, mu2 := Convexify(psd)
	if conv2 != psd || mu2 != 0 {
		t.Fatal("PSD problem perturbed")
	}
}

func TestMinEigenvalueEmpty(t *testing.T) {
	if MinEigenvalue(nil) != 0 {
		t.Fatal("empty matrix eigenvalue")
	}
}

func TestFeasibleTolerances(t *testing.T) {
	pr := &Problem{
		N: 2, P: []float64{0, 0},
		Ineq: []LinConstraint{{A: []float64{1, 1}, B: 1}},
	}
	if !pr.Feasible([]float64{1, 0}, 1e-9) {
		t.Fatal("boundary point rejected")
	}
	if pr.Feasible([]float64{1, 1}, 1e-9) {
		t.Fatal("violating point accepted")
	}
}

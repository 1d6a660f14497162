package miqp

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// FuzzSolve decodes a problem of at most 12 variables from the input and
// holds Solve to BruteForce on it. The seed corpus carries the
// ill-conditioned instance whose relaxation bound once cut off the
// optimum, so every `go test` replays it.
func FuzzSolve(f *testing.F) {
	f.Add(encodeProblem(illConditioned(105)))
	f.Add(encodeProblem(randomProblem(rand.New(rand.NewSource(1)), 7, true)))
	f.Add(encodeProblem(oneHotProblem(rand.New(rand.NewSource(2)), 12)))
	f.Fuzz(func(t *testing.T, data []byte) {
		pr := decodeProblem(data)
		if pr == nil {
			t.Skip("coefficient out of range")
		}
		if err := matchesBruteForce(pr); err != nil {
			t.Fatal(err)
		}
	})
}

// The fuzz encoding: byte 0 gives N = 1 + b%12; byte 1 has bit 0 set
// when Q is present, the inequality count in bits 1–2 and the equality
// count in bits 3–4. Then little-endian float64s follow: P, Q's upper
// triangle row by row, and each row's coefficients and right side,
// inequalities first. Input that runs out reads as zeros; a value that
// is not finite or exceeds 1e6 in magnitude rejects the input.

func encodeProblem(pr *Problem) []byte {
	flags := byte(len(pr.Ineq)<<1 | len(pr.Eq)<<3)
	if pr.Q != nil {
		flags |= 1
	}
	out := []byte{byte(pr.N - 1), flags}
	put := func(vs ...float64) {
		for _, v := range vs {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
	}
	put(pr.P...)
	if pr.Q != nil {
		for i, row := range pr.Q {
			put(row[i:]...)
		}
	}
	for _, c := range append(append([]LinConstraint(nil), pr.Ineq...), pr.Eq...) {
		put(c.A...)
		put(c.B)
	}
	return out
}

func decodeProblem(data []byte) *Problem {
	var head [2]byte
	copy(head[:], data)
	data = data[min(len(data), 2):]
	n := 1 + int(head[0])%12
	ok := true
	next := func() float64 {
		var b [8]byte
		copy(b[:], data)
		data = data[min(len(data), 8):]
		v := math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
		if !(math.Abs(v) <= 1e6) {
			ok = false
		}
		return v
	}
	vec := func() []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = next()
		}
		return v
	}
	pr := &Problem{N: n, P: vec()}
	if head[1]&1 != 0 {
		pr.Q = make([][]float64, n)
		for i := range pr.Q {
			pr.Q[i] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				pr.Q[i][j] = next()
				pr.Q[j][i] = pr.Q[i][j]
			}
		}
	}
	for k := 0; k < int(head[1]>>1&3); k++ {
		pr.Ineq = append(pr.Ineq, LinConstraint{A: vec(), B: next()})
	}
	for k := 0; k < int(head[1]>>3&3); k++ {
		pr.Eq = append(pr.Eq, LinConstraint{A: vec(), B: next()})
	}
	if !ok {
		return nil
	}
	return pr
}

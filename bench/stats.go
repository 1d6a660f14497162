package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile is Python's statistics.quantiles(v, n=4)[i-1] (the default
// "exclusive" method), so the spreads this program prints are the ones
// the acceptance procedure computes. One sample is its own quantile.
func quantile(v []float64, i int) float64 {
	s := sorted(v)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return s[0]
	}
	m := n + 1
	j := i * m / 4
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	delta := float64(i*m - j*4)
	return (s[j-1]*(4-delta) + s[j]*delta) / 4
}

func median(v []float64) float64 { return quantile(v, 2) }

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	return (quantile(v, 3) - quantile(v, 1)) / median(v)
}

// geomean of positive values.
func geomean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(v)))
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

func mean(v []float64) float64 { return sum(v) / float64(len(v)) }

// highPercentile returns the highest whole percentile that still has at
// least ten samples beyond it, and its nearest-rank value; ok is false
// below twenty samples, where no percentile above the median qualifies.
func highPercentile(v []float64) (pct int, val float64, ok bool) {
	n := len(v)
	if n < 20 {
		return 0, 0, false
	}
	pct = int(100 * (1 - 10/float64(n)))
	s := sorted(v)
	rank := int(math.Ceil(float64(pct)/100*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	return pct, s[rank], true
}

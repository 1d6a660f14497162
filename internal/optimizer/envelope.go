package optimizer

// The per-lambda subproblem min_j cost_j + λ·time_j over the allowed
// memory blocks is a minimization of linear functions of λ: block j is
// the line f_j(λ) = cost_j + sec_j·λ. Instead of rescanning all L blocks
// for every λ the SLO search visits (the pre-overhaul planner's dominant
// cost on the 10k-block 2021 grid), each span precomputes the lower
// envelope of its lines and answers any λ ≥ 0 by binary search. It is
// built only over the window of blocks a certificate needs
// (Optimizer.begin, Optimizer.reach): the full construction started late
// and stopped early, resumable upward.
//
// Byte-identity with the exact scan is preserved by construction:
//
//   - envelope entries keep the block index, the exact cost_j float and
//     the exact times_j.Seconds() float the scan would use, and the
//     query evaluates the very same expression cost + λ·sec;
//   - entries stay ordered by ascending block index and the query
//     returns the leftmost minimum of the (convex) value sequence, which
//     mirrors the scan's lowest-index tie-break;
//   - lines are removed only when strictly above the envelope (collinear
//     ties are kept), so every scan argmin candidate remains present;
//   - λ = 0 — where exact cost ties between blocks are genuinely
//     possible (cost is memory × billed time, and e.g. 512 MB × 200 ms
//     equals 1024 MB × 100 ms bit-for-bit) — bypasses the envelope
//     entirely: envBuild records the scan's own λ=0 argmin.
//
// A property test drives the envelope against the retained exact scan
// across randomized multipliers.

import "time"

// envPoint is one line of a span's lower envelope.
type envPoint struct {
	j    int     // index into Optimizer.blocks
	sec  float64 // times[j].Seconds(), the line's slope in λ
	cost float64 // costs[j], the line's intercept
}

// envPush appends a candidate line, popping previous lines that the new
// one makes strictly unnecessary. Lines arrive with strictly decreasing
// slope (ascending block index ⇒ more memory ⇒ strictly faster after
// time-plateau dedup), the precondition for the O(1) amortized hull
// update. With s1 > s2 > s3, the middle line is strictly unnecessary iff
// the new line overtakes line 1 strictly before line 2 does:
// (c3−c1)(s1−s2) < (c2−c1)(s1−s3), both factors on the slope side
// positive. Ties (collinear lines) are kept so exact-equality argmins
// stay available to the leftmost-minimum query.
func envPush(env []envPoint, pt envPoint) []envPoint {
	for len(env) >= 2 {
		l1, l2 := env[len(env)-2], env[len(env)-1]
		if (pt.cost-l1.cost)*(l1.sec-l2.sec) < (l2.cost-l1.cost)*(l1.sec-pt.sec) {
			env = env[:len(env)-1]
			continue
		}
		break
	}
	return append(env, pt)
}

// envBuild continues a span's chain over the evaluated blocks
// lo … lo+len(ts)−1 (ascending memory, directly after those already in
// env), skipping blocks over the timeout, and returns the envelope with
// the λ = 0 scan argmin so far (zeroIdx, zeroVal: lowest index on exact
// cost ties; −1 and +Inf before any allowed block). Run by run or at
// once, the envelope is the same: env is the only state between blocks.
func envBuild(env []envPoint, zeroIdx int, zeroVal float64, lo int, ts []time.Duration, costs []float64, timeout time.Duration) ([]envPoint, int, float64) {
	var prevT time.Duration
	var sec float64
	for i, t := range ts {
		if t > timeout {
			continue
		}
		cost := costs[i]
		if cost < zeroVal {
			zeroIdx, zeroVal = lo+i, cost
		}
		if t != prevT || len(env) == 0 {
			prevT, sec = t, t.Seconds()
		}
		if n := len(env); n > 0 && sec == env[n-1].sec {
			// Time plateau: the same duration at more memory costs
			// strictly more (same billed time, higher GB-seconds), and
			// the earlier block also wins the scan's index tie-break.
			continue
		}
		env = envPush(env, envPoint{j: lo + i, sec: sec, cost: cost})
	}
	return env, zeroIdx, zeroVal
}

// lineAt is the per-lambda objective cost + λ·sec. The envelope query
// and the certificate's floor both go through it, so a platform that
// fuses the multiply-add fuses it in both.
func lineAt(cost, sec, lambda float64) float64 { return cost + lambda*sec }

// envQuery returns the block index and objective value minimizing
// cost + λ·sec over the envelope, for λ > 0. The value sequence along
// the envelope is convex in the entry order, so the leftmost minimum is
// found by binary search on the first non-negative forward difference;
// leftmost resolves exact value ties to the smallest block index, the
// scan's tie-break.
func envQuery(env []envPoint, lambda float64) (int, float64) {
	lo, hi := 0, len(env)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if lineAt(env[mid].cost, env[mid].sec, lambda) <= lineAt(env[mid+1].cost, env[mid+1].sec, lambda) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return env[lo].j, lineAt(env[lo].cost, env[lo].sec, lambda)
}

package obs

// Sampler is a seeded head-based span sampler: the keep/drop decision
// for an item is a pure function of (seed, index), decided before any
// span is materialized, so two runs with the same seed sample exactly
// the same items regardless of scheduling. Rates ≥ 1 keep everything
// (bit-for-bit identical to not sampling at all), rates ≤ 0 keep
// nothing, and a nil *Sampler keeps everything — the no-op convention
// shared by the rest of the package.
type Sampler struct {
	seed uint64
	rate float64
}

// NewSampler creates a sampler keeping roughly rate of all indexes,
// deterministically in seed.
func NewSampler(seed int64, rate float64) *Sampler {
	return &Sampler{seed: uint64(seed), rate: rate}
}

// Keep reports whether the item with the given stable index (request
// sequence number, batch-leader index) is sampled. The decision hashes
// the index through splitmix64 and compares the top 53 bits against the
// rate, so kept indexes are an unbiased, seed-deterministic subset.
func (s *Sampler) Keep(index uint64) bool {
	if s == nil || s.rate >= 1 {
		return true
	}
	if s.rate <= 0 {
		return false
	}
	h := splitmix64(s.seed ^ (index+1)*0x9e3779b97f4a7c15)
	return float64(h>>11)/(1<<53) < s.rate
}

// splitmix64 is the finalizer of Vigna's SplitMix64 generator — a
// cheap, well-mixed 64-bit hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

//go:build race

package optimizer

// raceEnabled reports that the race detector is on. The comparisons
// against the exact scan on the 10k-block grid are serial code and many
// times slower under it; the largest of them run without it (tier-1
// tests, `make equiv`).
const raceEnabled = true

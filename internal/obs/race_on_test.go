//go:build race

package obs

// raceEnabled reports whether this test binary was built with the race
// detector. Allocation-count tests skip under it: race instrumentation
// inhibits inlining and escape analysis, so they stop measuring what a
// production build allocates.
const raceEnabled = true

//go:build race

package zoo

// raceEnabled reports that the race detector is on. Its shadow memory
// multiplies a test's footprint, so the large models skip under it.
const raceEnabled = true

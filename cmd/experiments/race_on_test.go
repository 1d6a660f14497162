//go:build race

package main

// raceEnabled reports that the race detector is on; the full
// experiments run skips under it.
const raceEnabled = true

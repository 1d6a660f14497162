//go:build !race

package zoo

const raceEnabled = false

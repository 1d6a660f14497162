//go:build !race

package obs

// raceEnabled is false in ordinary builds; see race_on_test.go.
const raceEnabled = false

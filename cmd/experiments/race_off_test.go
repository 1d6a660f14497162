//go:build !race

package main

// raceEnabled is false in ordinary builds; see race_on_test.go.
const raceEnabled = false

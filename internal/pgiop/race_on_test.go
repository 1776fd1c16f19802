//go:build race

package pgiop

const raceEnabled = true

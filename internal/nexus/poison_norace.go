//go:build !race

package nexus

// poisonFrame does nothing outside the race lane (see poison_race.go).
func poisonFrame([]byte) {}

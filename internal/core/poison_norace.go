//go:build !race

package core

// poisonRecord does nothing outside the race lane (see poison_race.go).
func poisonRecord(*pendingReq) {}

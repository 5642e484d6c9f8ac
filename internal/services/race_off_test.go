//go:build !race

package services

// raceEnabled lets allocation checks skip under the race detector, whose
// instrumentation allocates.
const raceEnabled = false

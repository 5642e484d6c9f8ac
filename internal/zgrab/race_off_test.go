//go:build !race

package zgrab

// raceEnabled lets allocation checks skip under the race detector, whose
// instrumentation allocates.
const raceEnabled = false

//go:build race

package netsim

// raceEnabled lets allocation checks skip under the race detector, whose
// instrumentation allocates.
const raceEnabled = true

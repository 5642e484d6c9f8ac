//go:build race

package loopscan

// raceEnabled lets allocation checks skip under the race detector, whose
// instrumentation allocates.
const raceEnabled = true

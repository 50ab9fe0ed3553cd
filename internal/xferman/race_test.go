//go:build race

package xferman

// raceEnabled reports a -race build, where the heap soak's 10^4 jobs
// take minutes and measure the detector's shadow memory besides.
const raceEnabled = true

//go:build !race

package xferman

const raceEnabled = false

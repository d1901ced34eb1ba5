//go:build race

package router

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = true

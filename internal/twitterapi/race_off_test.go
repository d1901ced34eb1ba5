//go:build !race

package twitterapi

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = false

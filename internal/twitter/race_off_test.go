//go:build !race

package twitter

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = false

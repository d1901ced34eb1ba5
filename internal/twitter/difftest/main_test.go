package difftest

import (
	"os"
	"runtime/debug"
	"testing"
)

// TestMain quadruples the GC target: every stream reloads the store through
// each deployment's path back hundreds of times, and at the default target
// collection is a fifth of the package's CPU.
func TestMain(m *testing.M) {
	debug.SetGCPercent(400)
	os.Exit(m.Run())
}

// Package lockhold exercises the lockhold analyzer: blocking I/O and channel
// sends inside monitored critical sections, directly, through deferred
// releases and transitively through module calls.
package lockhold

import (
	"os"
	"sync"
)

type store struct {
	mu sync.Mutex
	f  *os.File
}

func (s *store) direct() {
	s.mu.Lock()
	_ = s.f.Sync() // want "calls ..os.File..Sync while a lockhold.mu lock is held"
	s.mu.Unlock()
}

func (s *store) deferred(ch chan int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch <- 1 // want "channel send while a lockhold.mu lock is held"
}

func (s *store) transitive() {
	s.mu.Lock()
	s.flush() // want "call to flush, which calls ..os.File..Sync"
	s.mu.Unlock()
}

func (s *store) flush() { _ = s.f.Sync() }

// clean moves the I/O outside the critical section; nothing is flagged.
func (s *store) clean() {
	s.mu.Lock()
	n := 1
	_ = n
	s.mu.Unlock()
	_ = s.f.Sync()
}

func (s *store) audited() {
	s.mu.Lock()
	//fp:allow lockhold this golden serialises under the lock on purpose
	_ = s.f.Sync()
	s.mu.Unlock()
}

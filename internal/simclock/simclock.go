// Package simclock provides a clock abstraction so that every time-dependent
// component of the system (rate limiters, crawlers, caches, response-time
// measurements) can run against either the real wall clock or a fully
// deterministic virtual clock.
//
// The virtual clock is the substrate that lets the reproduction measure
// multi-day crawls (the paper's 27-day crawl of Barack Obama's followers,
// Section IV-B) in milliseconds of real time: a component that "sleeps"
// on the virtual clock merely advances it.
package simclock

import (
	"sync"
	"time"
)

// Clock is the minimal time source used throughout the system.
//
// Implementations must be safe for concurrent use.
type Clock interface {
	// Now returns the current time according to this clock.
	Now() time.Time
	// Sleep blocks (or virtually advances) for duration d.
	// Negative or zero durations return immediately.
	Sleep(d time.Duration)
	// AfterFunc calls f on its own goroutine once d has passed. The
	// returned stop cancels the call: it reports true if f will not run,
	// false if f has been started (or, on a virtual clock, always runs).
	AfterFunc(d time.Duration, f func()) (stop func() bool)
}

// Real is a Clock backed by the operating system's wall clock.
// The zero value is ready to use.
type Real struct{}

var _ Clock = Real{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

// AfterFunc implements Clock with a runtime timer.
func (Real) AfterFunc(d time.Duration, f func()) func() bool {
	return time.AfterFunc(d, f).Stop
}

// Virtual is a deterministic Clock whose time only moves when explicitly
// advanced, either by Advance or by a Sleep call. It is safe for concurrent
// use; concurrent sleepers each advance the clock by their own duration,
// which models sequential execution of the sleeping activities (adequate for
// the single-crawler pipelines in this system).
type Virtual struct {
	mu  sync.Mutex
	now time.Time

	// sleeps counts the Sleep invocations that actually advanced time,
	// which tests use to assert rate-limit waits happened.
	sleeps int
	// slept accumulates the total virtual time spent sleeping.
	slept time.Duration
}

var _ Clock = (*Virtual)(nil)

// NewVirtual returns a Virtual clock starting at the given instant.
func NewVirtual(start time.Time) *Virtual {
	return &Virtual{now: start}
}

// Epoch is the default start instant used across the reproduction: a fixed
// date in the paper's measurement period (early 2014) so that account ages,
// "last tweet more than 90 days ago" rules, and report timestamps are stable
// across runs.
var Epoch = time.Date(2014, time.March, 1, 12, 0, 0, 0, time.UTC)

// NewVirtualAtEpoch returns a Virtual clock starting at Epoch.
func NewVirtualAtEpoch() *Virtual { return NewVirtual(Epoch) }

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Sleep implements Clock by advancing the virtual time by d.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	v.now = v.now.Add(d)
	v.sleeps++
	v.slept += d
}

// AfterFunc implements Clock: the wait is one Sleep of d, after which f
// runs at once on its own goroutine, so stop never prevents it.
func (v *Virtual) AfterFunc(d time.Duration, f func()) func() bool {
	v.Sleep(d)
	go f()
	return func() bool { return false }
}

// Advance moves the clock forward by d without recording a sleep.
// It panics if d is negative, since virtual time may never go backwards.
func (v *Virtual) Advance(d time.Duration) {
	if d < 0 {
		panic("simclock: cannot advance virtual clock backwards")
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	v.now = v.now.Add(d)
}

// SetNow jumps the clock to t. It panics if t is before the current time.
func (v *Virtual) SetNow(t time.Time) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if t.Before(v.now) {
		panic("simclock: cannot set virtual clock backwards")
	}
	v.now = t
}

// Sleeps reports how many Sleep calls advanced the clock.
func (v *Virtual) Sleeps() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.sleeps
}

// Slept reports the total virtual duration spent in Sleep.
func (v *Virtual) Slept() time.Duration {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.slept
}

// Stopwatch measures elapsed time on an arbitrary Clock.
type Stopwatch struct {
	clock Clock
	start time.Time
}

// NewStopwatch starts a stopwatch on the given clock.
func NewStopwatch(c Clock) *Stopwatch {
	return &Stopwatch{clock: c, start: c.Now()}
}

// Elapsed returns the time elapsed since the stopwatch was started.
func (s *Stopwatch) Elapsed() time.Duration { return s.clock.Now().Sub(s.start) }

// Restart resets the stopwatch start to the clock's current time.
func (s *Stopwatch) Restart() { s.start = s.clock.Now() }

// Latch fixes one instant of a clock: the first Now reads Clock and every
// later call repeats that reading. A consumer that judges evidence as it
// streams in latches its observation instant when the first piece arrives —
// after whatever (virtual) time fetching it cost — and judges every later
// piece against the same instant. Not safe for concurrent use.
type Latch struct {
	Clock Clock
	at    time.Time
	set   bool
}

// Now returns the latched instant, reading the clock if it is the first call.
func (l *Latch) Now() time.Time {
	if !l.set {
		l.at, l.set = l.Clock.Now(), true
	}
	return l.at
}

package simclock

import (
	"sync"
	"testing"
	"time"
)

func TestVirtualStartsAtGivenInstant(t *testing.T) {
	start := time.Date(2014, 1, 2, 3, 4, 5, 0, time.UTC)
	v := NewVirtual(start)
	if got := v.Now(); !got.Equal(start) {
		t.Fatalf("Now() = %v, want %v", got, start)
	}
}

func TestVirtualSleepAdvances(t *testing.T) {
	v := NewVirtualAtEpoch()
	v.Sleep(90 * time.Second)
	want := Epoch.Add(90 * time.Second)
	if got := v.Now(); !got.Equal(want) {
		t.Fatalf("Now() after Sleep = %v, want %v", got, want)
	}
	if v.Sleeps() != 1 {
		t.Fatalf("Sleeps() = %d, want 1", v.Sleeps())
	}
	if v.Slept() != 90*time.Second {
		t.Fatalf("Slept() = %v, want 90s", v.Slept())
	}
}

func TestVirtualSleepNonPositiveIsNoop(t *testing.T) {
	v := NewVirtualAtEpoch()
	v.Sleep(0)
	v.Sleep(-time.Second)
	if got := v.Now(); !got.Equal(Epoch) {
		t.Fatalf("Now() = %v, want unchanged %v", got, Epoch)
	}
	if v.Sleeps() != 0 {
		t.Fatalf("Sleeps() = %d, want 0", v.Sleeps())
	}
}

func TestVirtualAdvanceDoesNotCountAsSleep(t *testing.T) {
	v := NewVirtualAtEpoch()
	v.Advance(time.Hour)
	if v.Sleeps() != 0 {
		t.Fatalf("Advance must not count as a sleep")
	}
	if got := v.Now(); !got.Equal(Epoch.Add(time.Hour)) {
		t.Fatalf("Now() = %v, want %v", got, Epoch.Add(time.Hour))
	}
}

func TestVirtualAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Advance(-1) should panic")
		}
	}()
	NewVirtualAtEpoch().Advance(-1)
}

func TestVirtualSetNowForwardOnly(t *testing.T) {
	v := NewVirtualAtEpoch()
	target := Epoch.Add(24 * time.Hour)
	v.SetNow(target)
	if got := v.Now(); !got.Equal(target) {
		t.Fatalf("Now() = %v, want %v", got, target)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("SetNow backwards should panic")
		}
	}()
	v.SetNow(Epoch)
}

func TestVirtualConcurrentSleepsAccumulate(t *testing.T) {
	v := NewVirtualAtEpoch()
	const n = 50
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			v.Sleep(time.Second)
		}()
	}
	wg.Wait()
	if got := v.Now(); !got.Equal(Epoch.Add(n * time.Second)) {
		t.Fatalf("Now() = %v, want %v", got, Epoch.Add(n*time.Second))
	}
	if v.Sleeps() != n {
		t.Fatalf("Sleeps() = %d, want %d", v.Sleeps(), n)
	}
}

func TestStopwatchOnVirtualClock(t *testing.T) {
	v := NewVirtualAtEpoch()
	sw := NewStopwatch(v)
	v.Sleep(3 * time.Minute)
	if got := sw.Elapsed(); got != 3*time.Minute {
		t.Fatalf("Elapsed() = %v, want 3m", got)
	}
	sw.Restart()
	if got := sw.Elapsed(); got != 0 {
		t.Fatalf("Elapsed() after Restart = %v, want 0", got)
	}
	v.Advance(time.Second)
	if got := sw.Elapsed(); got != time.Second {
		t.Fatalf("Elapsed() = %v, want 1s", got)
	}
}

func TestRealClockMonotonicEnough(t *testing.T) {
	c := Real{}
	a := c.Now()
	c.Sleep(time.Millisecond)
	b := c.Now()
	if b.Before(a) {
		t.Fatalf("real clock went backwards: %v then %v", a, b)
	}
}

// The tests below pin the Virtual clock's guarantees under the shape the
// monitoring subsystem runs: one scheduler goroutine advancing/sleeping on
// the clock while several auditd workers sleep on it concurrently.

// TestVirtualConcurrentSleepLowerBound: when a goroutine's Sleep(d)
// returns, the clock has advanced by at least d past the instant it
// started sleeping (others may have pushed it further, never less).
func TestVirtualConcurrentSleepLowerBound(t *testing.T) {
	v := NewVirtualAtEpoch()
	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		d := time.Duration(i+1) * time.Second
		go func() {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				before := v.Now()
				v.Sleep(d)
				if after := v.Now(); after.Before(before.Add(d)) {
					errs <- "Sleep returned with clock short of its own duration"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// TestVirtualMonotonicUnderMixedLoad: with sleepers and an advancer racing
// (workers awaiting rate-limit windows while the scheduler jumps to the
// next cadence), every goroutine observes a non-decreasing clock, and the
// final time is exactly the sum of all advances — virtual time is never
// lost or double-counted.
func TestVirtualMonotonicUnderMixedLoad(t *testing.T) {
	v := NewVirtualAtEpoch()
	const (
		sleepers  = 8
		advancers = 2
		rounds    = 200
	)
	var wg sync.WaitGroup
	errs := make(chan string, sleepers+advancers)
	observe := func(last *time.Time) bool {
		now := v.Now()
		if now.Before(*last) {
			return false
		}
		*last = now
		return true
	}
	wg.Add(sleepers + advancers)
	for i := 0; i < sleepers; i++ {
		go func() {
			defer wg.Done()
			last := v.Now()
			for r := 0; r < rounds; r++ {
				v.Sleep(time.Millisecond)
				if !observe(&last) {
					errs <- "sleeper observed the clock going backwards"
					return
				}
			}
		}()
	}
	for i := 0; i < advancers; i++ {
		go func() {
			defer wg.Done()
			last := v.Now()
			for r := 0; r < rounds; r++ {
				v.Advance(time.Millisecond)
				if !observe(&last) {
					errs <- "advancer observed the clock going backwards"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
	want := Epoch.Add((sleepers + advancers) * rounds * time.Millisecond)
	if got := v.Now(); !got.Equal(want) {
		t.Fatalf("final time %v, want %v (virtual time lost or duplicated)", got, want)
	}
	if v.Sleeps() != sleepers*rounds {
		t.Fatalf("Sleeps() = %d, want %d (Advance must not count)", v.Sleeps(), sleepers*rounds)
	}
	if v.Slept() != sleepers*rounds*time.Millisecond {
		t.Fatalf("Slept() = %v", v.Slept())
	}
}

// TestVirtualSchedulerWorkerInterleaving models one monitord round
// explicitly: the scheduler advances to the next cadence, workers burn
// virtual crawl time concurrently, and the stopwatch-measured round never
// exceeds the sum of everything spent on the clock.
func TestVirtualSchedulerWorkerInterleaving(t *testing.T) {
	v := NewVirtualAtEpoch()
	const (
		cadence   = 24 * time.Hour
		workers   = 4
		crawlCost = 3 * time.Minute
		days      = 27
	)
	sw := NewStopwatch(v)
	for day := 0; day < days; day++ {
		v.Advance(cadence)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				v.Sleep(crawlCost)
			}()
		}
		wg.Wait()
	}
	want := days * (cadence + workers*crawlCost)
	if got := sw.Elapsed(); got != want {
		t.Fatalf("27-day watch consumed %v of virtual time, want %v", got, want)
	}
}

// TestVirtualAfterFunc: the wait is one Sleep of d that moves Now by d, f
// runs once, and stop cannot prevent it.
func TestVirtualAfterFunc(t *testing.T) {
	v := NewVirtualAtEpoch()
	ran := make(chan struct{}, 2)
	stop := v.AfterFunc(250*time.Millisecond, func() { ran <- struct{}{} })
	if v.Sleeps() != 1 || v.Slept() != 250*time.Millisecond {
		t.Errorf("Sleeps() = %d, Slept() = %v; want 1, 250ms", v.Sleeps(), v.Slept())
	}
	if got, want := v.Now(), Epoch.Add(250*time.Millisecond); !got.Equal(want) {
		t.Errorf("Now() = %v, want %v", got, want)
	}
	if stop() {
		t.Error("stop() = true; a virtual AfterFunc always runs f")
	}
	select {
	case <-ran:
	case <-time.After(10 * time.Second):
		t.Fatal("f never ran")
	}
	select {
	case <-ran:
		t.Fatal("f ran twice")
	case <-time.After(20 * time.Millisecond):
	}
}

// TestRealAfterFuncStop: a stop before the deadline reports true and f
// never runs.
func TestRealAfterFuncStop(t *testing.T) {
	ran := make(chan struct{}, 1)
	stop := Real{}.AfterFunc(200*time.Millisecond, func() { ran <- struct{}{} })
	if !stop() {
		t.Fatal("stop() before the deadline = false, want true")
	}
	select {
	case <-ran:
		t.Fatal("f ran after a successful stop")
	case <-time.After(400 * time.Millisecond): // past the deadline
	}
}

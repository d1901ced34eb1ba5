//fp:allow-file walltime the clock meter times a fixed chain of instructions against the wall clock

package main

import (
	"sort"
	"sync"
	"time"
)

// This host changes the clock of its cores under the guest: a chain of
// dependent multiplications that takes 48 us in one second takes 61 us in
// the next and stays there for seconds or minutes, with no steal and no
// counter in the guest that shows it, and CPU-bound work slows by nine
// tenths of the same ratio. A set-up is one such piece of work, half a
// second of decoding in one process, and the clock was most of what made
// setup_s differ between runs of identical code.
//
// The benchmark therefore reads the clock rate every clockEvery with that
// chain, and states setup_s at a reference clock: a set-up counts for the
// share of clockRefChain the chain took while it ran. On a machine whose
// chain takes clockRefChain that is wall time. Over ten runs it narrowed
// the spread of setup_s from 6-21 % to 2-5 %.
//
// The metrics of the timed phase stay on the wall clock. Stated at the
// reference clock their ten-run spread narrowed on two workloads (14 to
// 6 %, 10 to 8 %), stayed on one and widened on one (8 to 11 %): the
// daemons' time is only partly the core's, and the rest of what this host
// does to them follows no signal the guest has. host.clock_scale reports
// the phase's mean scale so that a moved number can be held against it.
const (
	// clockChainSteps dependent xor-multiply steps are 200 000 cycles on a
	// core that multiplies in three cycles: 50 us at 4 GHz.
	clockChainSteps = 50000
	clockRefChain   = 50 * time.Microsecond
	clockEvery      = 100 * time.Millisecond
)

var clockSink uint64

// timeChain runs the chain three times and returns the fastest, which an
// interrupt or a preemption in one of them does not reach.
func timeChain() time.Duration {
	best := time.Duration(0)
	for k := 0; k < 3; k++ {
		begin := time.Now()
		h := uint64(1469598103934665603)
		for i := uint64(0); i < clockChainSteps; i++ {
			h = (h ^ i) * 1099511628211
		}
		clockSink += h
		if d := time.Since(begin); best == 0 || d < best {
			best = d
		}
	}
	return best
}

// clockMeter records the scale of the moment — clockRefChain over the
// chain's time, 1 at the reference clock and below it on a slower one —
// for as long as it runs.
type clockMeter struct {
	mu     sync.Mutex
	at     []time.Time
	scales []float64
	stop   chan struct{}
	done   chan struct{}
}

func startClockMeter() *clockMeter {
	m := &clockMeter{stop: make(chan struct{}), done: make(chan struct{})}
	m.record(time.Now(), timeChain())
	go func() {
		defer close(m.done)
		tick := time.NewTicker(clockEvery)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case now := <-tick.C:
				m.record(now, timeChain())
			}
		}
	}()
	return m
}

func (m *clockMeter) close() {
	close(m.stop)
	<-m.done
}

func (m *clockMeter) record(at time.Time, chain time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.at = append(m.at, at)
	m.scales = append(m.scales, float64(clockRefChain)/float64(chain))
}

// smoothed is reading i with its two neighbours, the middle of the three: a
// reading that every one of its three chains lost to a preemption does not
// stand alone.
func smoothed(scales []float64, i int) float64 {
	lo, hi := max(i-1, 0), min(i+2, len(scales))
	three := append([]float64(nil), scales[lo:hi]...)
	sort.Float64s(three)
	return three[len(three)/2]
}

// scaleAt is the clock's scale at t: the smoothed reading nearest to it.
func scaleAt(at []time.Time, scales []float64, t time.Time) float64 {
	i := sort.Search(len(at), func(i int) bool { return !at[i].Before(t) })
	if i == len(at) || (i > 0 && t.Sub(at[i-1]) < at[i].Sub(t)) {
		i--
	}
	return smoothed(scales, i)
}

// scaleOver is the mean scale over the readings taken from from to to, and
// the scale at the middle of an interval too short to hold one. A duration
// times it is the duration at the reference clock.
func (m *clockMeter) scaleOver(from, to time.Time) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	lo := sort.Search(len(m.at), func(i int) bool { return !m.at[i].Before(from) })
	hi := sort.Search(len(m.at), func(i int) bool { return m.at[i].After(to) })
	if lo >= hi {
		return scaleAt(m.at, m.scales, from.Add(to.Sub(from)/2))
	}
	total := 0.0
	for i := lo; i < hi; i++ {
		total += smoothed(m.scales, i)
	}
	return total / float64(hi-lo)
}

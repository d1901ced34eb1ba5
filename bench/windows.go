//fp:allow-file walltime the benchmark measures real elapsed time by design

package main

import (
	"bytes"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// On a shared VM the hypervisor takes the CPU away for a few percent of
// most seconds and for a quarter of some, and a closed loop on two vCPUs
// reads that directly as lost throughput. The timed phase is therefore cut
// into one-second windows, the steal counter of the CPU the benchmark is
// pinned to is read from /proc/stat at every boundary, and the metrics are
// computed over quiet windows only. Windows
// are chosen by the host's signal alone, never by latency, so the program's
// own pauses (GC, compaction, hedges) stay in the numbers. What the host does
// to the clock rate, which is more and shows in no counter, is in clock.go.
const (
	windowLen = time.Second
	// quietStealShare is the share of a window's CPU time the hypervisor
	// may have stolen for the window to count as quiet.
	quietStealShare = 0.01
	// userHZ is the unit of /proc/stat's counters, fixed at 100 by the
	// kernel's user ABI.
	userHZ = 100
)

// stealSample is the cumulative steal counter at one instant.
type stealSample struct {
	At    time.Time
	Ticks uint64
}

// parseStealTicks reads the steal counter, the eighth, of cpu's line in
// /proc/stat — of the aggregate line when cpu is negative — and reports
// false where the host has none.
func parseStealTicks(stat []byte, cpu int) (uint64, bool) {
	label := []byte("cpu")
	if cpu >= 0 {
		label = strconv.AppendInt(label, int64(cpu), 10)
	}
	for _, line := range bytes.Split(stat, []byte("\n")) {
		fields := bytes.Fields(line)
		if len(fields) < 9 || !bytes.Equal(fields[0], label) {
			continue
		}
		v, err := strconv.ParseUint(string(fields[8]), 10, 64)
		return v, err == nil
	}
	return 0, false
}

// takeStealSample reads cpu's steal counter; without one it stays 0 and
// every window is quiet.
func takeStealSample(cpu int) stealSample {
	s := stealSample{At: time.Now()}
	if data, err := os.ReadFile("/proc/stat"); err == nil {
		s.Ticks, _ = parseStealTicks(data, cpu)
	}
	return s
}

// window is one slice of the timed phase between two steal samples.
type window struct {
	Start, End time.Time
	// StealShare is stolen CPU time over the window's CPU capacity.
	StealShare float64
}

// windowsOf turns n+1 samples of the steal counter of cpus CPUs into n
// windows.
func windowsOf(samples []stealSample, cpus int) []window {
	var out []window
	for i := 1; i < len(samples); i++ {
		a, b := samples[i-1], samples[i]
		w := window{Start: a.At, End: b.At}
		if span := b.At.Sub(a.At).Seconds() * float64(cpus); span > 0 && b.Ticks >= a.Ticks {
			w.StealShare = float64(b.Ticks-a.Ticks) / userHZ / span
		}
		out = append(out, w)
	}
	return out
}

// selectWindows marks the windows the metrics are computed over: every
// quiet one, or, when fewer than atLeast are quiet, the atLeast windows
// with the least steal (earlier first among equals).
func selectWindows(ws []window, atLeast int) []bool {
	selected := make([]bool, len(ws))
	quiet := 0
	for i, w := range ws {
		if w.StealShare <= quietStealShare {
			selected[i] = true
			quiet++
		}
	}
	if quiet >= atLeast || quiet == len(ws) {
		return selected
	}
	order := make([]int, len(ws))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return ws[order[a]].StealShare < ws[order[b]].StealShare })
	for i := range selected {
		selected[i] = false
	}
	for _, i := range order[:min(atLeast, len(order))] {
		selected[i] = true
	}
	return selected
}

// opTiming is one operation of the timed phase.
type opTiming struct {
	Start, End time.Time
	OK         bool
}

// phaseStats is what one timed phase measured over its selected windows.
type phaseStats struct {
	// Attempted and Failed count every operation of the phase, selected
	// or not: a failure is never filtered away.
	Attempted, Failed int
	// Timed is the number of operations inside selected windows, the
	// sample the latency percentiles are taken over.
	Timed           int
	SelectedSeconds float64
	Throughput      float64 // operations per second of selected time
	P50, P90, P99   float64 // milliseconds
	Max             float64 // milliseconds
	// SLOMissPct is the share of timed operations slower than the
	// workload's limit; a failed operation misses it.
	SLOMissPct float64
	// QuietShare is the share of windows under the steal threshold,
	// StealPct the mean steal over all windows, WindowsUsed how many were
	// selected.
	QuietShare  float64
	StealPct    float64
	WindowsUsed int
}

// windowIndex returns the window holding t, or -1.
func windowIndex(ws []window, t time.Time) int {
	i := sort.Search(len(ws), func(i int) bool { return ws[i].End.After(t) })
	if i == len(ws) || t.Before(ws[i].Start) {
		return -1
	}
	return i
}

// summarize computes the phase's metrics. An operation counts when both the
// window it started in and the window it completed in are selected.
func summarize(ops []opTiming, ws []window, selected []bool, slo time.Duration) phaseStats {
	st := phaseStats{Attempted: len(ops)}
	quiet := 0
	for i, w := range ws {
		if w.StealShare <= quietStealShare {
			quiet++
		}
		st.StealPct += 100 * w.StealShare
		if selected[i] {
			st.WindowsUsed++
			st.SelectedSeconds += w.End.Sub(w.Start).Seconds()
		}
	}
	if len(ws) > 0 {
		st.QuietShare = float64(quiet) / float64(len(ws))
		st.StealPct /= float64(len(ws))
	}
	var lat []float64
	missed := 0
	for _, op := range ops {
		if !op.OK {
			st.Failed++
		}
		a, b := windowIndex(ws, op.Start), windowIndex(ws, op.End)
		if a < 0 || b < 0 || !selected[a] || !selected[b] {
			continue
		}
		d := op.End.Sub(op.Start)
		lat = append(lat, float64(d)/float64(time.Millisecond))
		if !op.OK || d > slo {
			missed++
		}
	}
	st.Timed = len(lat)
	if st.Timed == 0 {
		return st
	}
	sort.Float64s(lat)
	st.P50, st.P90, st.P99 = percentile(lat, 50), percentile(lat, 90), percentile(lat, 99)
	st.Max = lat[len(lat)-1]
	st.SLOMissPct = 100 * float64(missed) / float64(st.Timed)
	if st.SelectedSeconds > 0 {
		st.Throughput = float64(st.Timed) / st.SelectedSeconds
	}
	return st
}

// percentile returns the p-th percentile of sorted by linear interpolation
// between closest ranks.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (rank-float64(lo))*(sorted[hi]-sorted[lo])
}

// runTimed runs op in a closed loop for the given number of one-second
// windows, sampling cpu's steal at every boundary from a second goroutine so
// the loop itself does nothing but issue operations and read the clock. A
// negative cpu means the run is not pinned and every CPU's steal counts.
// between, when not nil, runs after each operation, outside its time.
func runTimed(seconds, cpu int, op func() bool, between func()) ([]opTiming, []window) {
	cpus := 1
	if cpu < 0 {
		cpus = runtime.NumCPU()
	}
	samples := []stealSample{takeStealSample(cpu)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(windowLen)
		defer tick.Stop()
		for len(samples) <= seconds {
			<-tick.C
			samples = append(samples, takeStealSample(cpu))
		}
	}()
	var ops []opTiming
	for {
		select {
		case <-done:
			return ops, windowsOf(samples, cpus)
		default:
		}
		start := time.Now()
		ok := op()
		ops = append(ops, opTiming{Start: start, End: time.Now(), OK: ok})
		if between != nil {
			between()
		}
	}
}

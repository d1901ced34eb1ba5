//fp:allow-file walltime the benchmark measures real elapsed time by design

package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"time"

	"fakeproject/internal/stats"
)

// Run protocol constants, the same for every workload.
const (
	// The children are started from scratch setupsBefore times before the
	// timed phase, the last instance being the one measured, and setupsAfter
	// times more after it: this host slows for seconds at a time, and starts
	// half a minute apart do not share such a spell. Each start is stated at
	// the reference clock (clock.go), and setup_s is the mean of the
	// setupsCounted fastest. Over ten runs that spread 5 / 2 / 5 / 4 %
	// (interquartile, of the median) on the four workloads; the fastest of
	// five wall-clock starts in a row had spread 42 / 28 / 11 / 27 %.
	setupsBefore  = 5
	setupsAfter   = 5
	setupsCounted = 3
	// warmUp lets connection set-up, lazy initialisation and the first GC
	// cycles happen before the timed phase.
	warmUp = 2 * time.Second
	// requestTimeout fails an operation that hangs; a timeout is a failed
	// operation, never a dropped sample.
	requestTimeout = 10 * time.Second
	startTimeout   = 60 * time.Second
)

// runEnv is what one invocation shares across its workloads.
type runEnv struct {
	fx      *fixture
	jan     *janitor
	binDir  string // built daemons
	workDir string // fixture, WAL directories; removed at exit
	logDir  string // children's output; kept when a run fails
	self    string // this executable, re-run as the churn worker
	seconds int
	cpu     int // the CPU everything is pinned to, or -1
	clock   *clockMeter
	walDirs int // WAL directories handed out so far
}

// newClient returns the one keep-alive connection a workload's caller uses.
func newClient() *http.Client {
	return &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxIdleConns:        1,
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			IdleConnTimeout:     time.Minute,
			// A followers/ids page is 50 KB; the default 4 KB buffer would
			// spend a dozen read calls of the caller's on each.
			ReadBufferSize: 64 << 10,
		},
	}
}

// session is one started instance of a workload's system under test, as
// the run protocol drives it.
type session interface {
	// verify checks the system's answers before anything is timed.
	verify() error
	// op issues one operation and reports whether it succeeded.
	op() bool
	// beginTimed and endTimed bracket the timed phase; endTimed returns
	// the per-layer metrics read from the children.
	beginTimed() error
	endTimed(attempted int) (map[string]float64, error)
	// finish runs the checks that must follow the timed phase.
	finish() (map[string]float64, error)
	// peakRSS is the peak resident memory of the system under test, in
	// MiB, summed over its server processes; it is read while they live.
	peakRSS() (float64, error)
	stop()
}

// workload is one traffic mix and the system it runs against.
type workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why string
	// SLO is the latency limit client.slo_miss_pct counts against.
	SLO time.Duration
	// Layers are the per-layer metrics read from this workload's own
	// children. On a workload that does not list it such a metric reads 0:
	// the workload bypasses the layer.
	Layers []string
	start  func(env *runEnv) (session, error)
}

var (
	twitterdLayers = []string{"twitterd.handler_mean_us", "twitterd.cpu_ms_per_op", "twitterd.peak_rss_mb"}
	routerdLayers  = []string{
		"routerd.handler_mean_us", "routerd.upstream_mean_us", "routerd.cpu_ms_per_op", "routerd.peak_rss_mb",
		"router.upstream_per_request", "router.hedges_per_1k", "router.hedge_wins_per_1k",
		"router.failovers", "router.ejections",
	}
	churnLayers = []string{
		"wal.fsyncs_per_s", "wal.fsync_p50_ms", "wal.compactions", "wal.compaction_s_mean",
		"churn.cpu_ms_per_op", "churn.peak_rss_mb", "churn.settled_rss_mb",
	}
	auditdLayers = []string{"auditd.api_calls_per_job", "auditd.jobs_failed", "auditd.cpu_ms_per_op", "auditd.peak_rss_mb"}
)

var workloads = []workload{
	{
		Name:   "crawl-single",
		Why:    "one twitterd serves the crawl stream: handler, encode and lock-free store reads do all the work; router, wal and auditd do none",
		SLO:    5 * time.Millisecond,
		Layers: twitterdLayers,
		start:  func(env *runEnv) (session, error) { return startCrawl(env, false) },
	},
	{
		Name:   "crawl-ring",
		Why:    "the same byte-identical stream through routerd over a two-node ring, so only router work (routing, name resolution, scatter/gather, hedging) differs",
		SLO:    10 * time.Millisecond,
		Layers: slices.Concat(twitterdLayers, routerdLayers),
		start:  func(env *runEnv) (session, error) { return startCrawl(env, true) },
	},
	{
		Name:   "churn-wal",
		Why:    "purchase bursts, purge sweeps and page reads on the celebrity of a WAL-backed store: writes beside reads, so a read gain that taxes appends or rebuilds shows",
		SLO:    100 * time.Millisecond,
		Layers: churnLayers,
		start:  startChurn,
	},
	{
		Name:   "audit-cold",
		Why:    "uncached four-tool audits of equal 20k targets through auditd: queue, workers and the four engines do the work and the HTTP API plane does none",
		SLO:    100 * time.Millisecond,
		Layers: auditdLayers,
		start:  startAudit,
	},
}

// fromChildren reports whether a metric is one some workload reads from its
// children.
func fromChildren(name string) bool {
	for _, wl := range workloads {
		if slices.Contains(wl.Layers, name) {
			return true
		}
	}
	return false
}

func workloadByName(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.Name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// runResult is everything one run of one workload measured.
type runResult struct {
	Workload string
	Correct  bool
	Problems []string
	Stats    phaseStats
	// Values holds every metric by name, end-to-end and per-layer.
	Values map[string]float64
}

// runWorkload executes the run protocol: repeated set-up, verification,
// warm-up, the timed phase over steal-gated windows, teardown, and the
// remaining set-ups. A traced run reports no setup_s and sets up once.
func runWorkload(env *runEnv, wl workload, traced bool) (runResult, error) {
	res := runResult{Workload: wl.Name, Values: map[string]float64{}}
	var setups []float64
	start := func() (session, error) {
		begin := time.Now()
		s, err := wl.start(env)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", wl.Name, err)
		}
		end := time.Now()
		setups = append(setups, end.Sub(begin).Seconds()*env.clock.scaleOver(begin, end))
		return s, nil
	}
	before, later := setupsBefore, setupsAfter
	if traced {
		before, later = 1, 0
	}
	s, err := start()
	if err != nil {
		return res, err
	}
	// restart replaces the running instance by a fresh one.
	restart := func() error {
		s.stop()
		fresh, err := start()
		if err == nil {
			s = fresh
		}
		return err
	}
	defer func() { s.stop() }()
	for i := 1; i < before; i++ {
		if err := restart(); err != nil {
			return res, err
		}
	}

	if err := s.verify(); err != nil {
		res.Problems = append(res.Problems, "verify: "+err.Error())
	}
	for end := time.Now().Add(warmUp); time.Now().Before(end); {
		s.op()
	}

	if err := s.beginTimed(); err != nil {
		return res, fmt.Errorf("%s: %w", wl.Name, err)
	}
	var between func()
	if b, ok := s.(interface{ betweenOps() }); ok {
		between = b.betweenOps
	}
	ops, windows := runTimed(env.seconds, env.cpu, s.op, between)
	layer, err := s.endTimed(len(ops))
	if err != nil {
		return res, fmt.Errorf("%s: %w", wl.Name, err)
	}
	selected := selectWindows(windows, (len(windows)+1)/2)
	st := summarize(ops, windows, selected, wl.SLO)
	res.Stats = st

	peak, err := s.peakRSS()
	if err != nil {
		return res, fmt.Errorf("%s: %w", wl.Name, err)
	}
	after, err := s.finish()
	if err != nil {
		res.Problems = append(res.Problems, "finish: "+err.Error())
	}
	for i := 0; i < later; i++ {
		if err := restart(); err != nil {
			return res, err
		}
	}
	fmt.Printf("workload %s setups_s=%.4f\n", wl.Name, setups)
	slices.Sort(setups)
	res.Values["setup_s"] = stats.Mean(setups[:min(setupsCounted, len(setups))])

	if st.Failed > 0 {
		res.Problems = append(res.Problems, fmt.Sprintf("%d of %d operations failed", st.Failed, st.Attempted))
	}
	if st.Timed == 0 {
		res.Problems = append(res.Problems, "no operation completed inside the selected windows")
	}
	res.Correct = len(res.Problems) == 0

	for k, v := range layer {
		res.Values[k] = v
	}
	for k, v := range after {
		res.Values[k] = v
	}
	res.Values["throughput_ops_s"] = st.Throughput
	res.Values["latency_p50_ms"] = st.P50
	res.Values["latency_p90_ms"] = st.P90
	res.Values["peak_rss_mb"] = peak
	res.Values["client.latency_p99_ms"] = st.P99
	res.Values["client.latency_max_ms"] = st.Max
	res.Values["client.slo_miss_pct"] = st.SLOMissPct
	res.Values["client.ops_timed"] = float64(st.Timed)
	res.Values["host.clock_scale"] = env.clock.scaleOver(windows[0].Start, windows[len(windows)-1].End)
	res.Values["host.quiet_window_share"] = st.QuietShare
	res.Values["host.steal_pct"] = st.StealPct
	res.Values["host.windows_used"] = float64(st.WindowsUsed)
	return res, nil
}

// cpuDelta is the CPU time, in milliseconds per operation, the children
// spent between two usage readings.
func cpuDelta(children []*child, before []procUsage, ops int) (float64, error) {
	now, err := usageOf(children)
	if err != nil || ops == 0 {
		return 0, err
	}
	total := 0.0
	for i, u := range now {
		total += u.CPUSeconds - before[i].CPUSeconds
	}
	return total * 1000 / float64(ops), nil
}

func usageOf(children []*child) ([]procUsage, error) {
	out := make([]procUsage, len(children))
	for i, c := range children {
		u, err := c.usage()
		if err != nil {
			return nil, err
		}
		out[i] = u
	}
	return out, nil
}

func peakOf(children []*child) (float64, error) {
	us, err := usageOf(children)
	total := 0.0
	for _, u := range us {
		total += u.PeakRSSMiB
	}
	return total, err
}

// keepLogs reports where a failed run's child output was left.
func keepLogs(env *runEnv) {
	entries, _ := os.ReadDir(env.logDir)
	if len(entries) > 0 {
		fmt.Fprintf(os.Stderr, "bench: children's output kept in %s\n", filepath.ToSlash(env.logDir))
	}
}

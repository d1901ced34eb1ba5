// Command loadd is the end-to-end load generator for the HTTP plane: it
// aims at running daemons — a twitterd or a routerd at -api, optionally an
// auditd at -audit — drives one or more workload mixes at the -accounts
// targets with an open-loop (fixed-arrival-rate) schedule, and reports
// per-endpoint latency percentiles, throughput and error counts.
//
//	loadd -mix crawl-heavy -api http://127.0.0.1:8080 -accounts davc
//	loadd -mix all -api http://127.0.0.1:8080 -audit http://127.0.0.1:8081 \
//	  -accounts genpop_target -duration 5s
//
// Each mix prints one table on stdout, and the exit status is non-zero if
// any mix saw an unexpected (non-429) error; nothing is written to disk —
// numbers meant to be compared across commits come from the benchmark
// (go run ./bench). Mixes: crawl-heavy, audit-heavy (needs -audit),
// churn-storm, celebrity-hotspot, multinode; -duration is per mix. See
// docs/OPERATIONS.md for the full runbook.
//
// While a mix runs, a status line reports per-endpoint throughput and
// latency every -progress interval (suppress with -quiet), and -metrics
// starts an observability sidecar server on -obs-addr serving /metrics,
// /metrics.json and the live dashboard at /dashboard/ — the same surfaces
// the daemons expose, fed by the generator's client-side histograms.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fakeproject/internal/loadgen"
	"fakeproject/internal/metrics"
	"fakeproject/internal/platform"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "loadd:", err)
		os.Exit(1)
	}
}

func run() error {
	// Observability sidecar: the daemons' -metrics/-dashboard/-pprof, served
	// on -obs-addr while the mixes run.
	var obsSpec platform.Spec
	flag.StringVar(&obsSpec.Addr, "obs-addr", "127.0.0.1:8089", "observability server listen address")
	obsSpec.ObsFlags(flag.CommandLine)
	var (
		mix        = flag.String("mix", "all", "workload mix to run: all, or a comma list of "+strings.Join(loadgen.MixNames(), ", "))
		duration   = flag.Duration("duration", 5*time.Second, "run length per mix")
		rate       = flag.Float64("rate", 300, "steady arrival rate, requests/second")
		burstRate  = flag.Float64("burst-rate", 0, "arrival rate during bursts (0 = steady only)")
		burstEvery = flag.Duration("burst-every", time.Second, "burst period, start to start")
		burstLen   = flag.Duration("burst-len", 200*time.Millisecond, "burst length")
		inflight   = flag.Int("inflight", 256, "max outstanding requests; arrivals beyond it are shed and reported")
		progress   = flag.Duration("progress", 2*time.Second, "live status-line interval (0 disables)")
		quiet      = flag.Bool("quiet", false, "suppress the live status line")

		// The daemons under load.
		api      = flag.String("api", "", "twitterd or routerd base URL to drive (required)")
		audit    = flag.String("audit", "", "auditd base URL (enables audit-heavy)")
		accounts = flag.String("accounts", "", "comma list of target screen names (required)")
	)
	flag.Parse()

	mixes, err := resolveMixes(*mix)
	if err != nil {
		return err
	}
	if *api == "" {
		return fmt.Errorf("-api is required: loadd drives running daemons")
	}
	names := splitList(*accounts)
	if len(names) == 0 {
		return fmt.Errorf("-accounts is required")
	}

	obs, err := platform.New(obsSpec)
	if err != nil {
		return err
	}
	reg := obs.Reg
	if obsSpec.Metrics || obsSpec.Pprof {
		// A busy port is an error: the caller chose the address.
		if _, err := obs.Start(); err != nil {
			return fmt.Errorf("observability server: %w", err)
		}
		defer obs.Server.Close()
	}

	pattern := loadgen.Pattern{
		Rate:       *rate,
		BurstRate:  *burstRate,
		BurstEvery: *burstEvery,
		BurstLen:   *burstLen,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	h, err := loadgen.NewRemote(*api, *audit, names)
	if err != nil {
		return err
	}
	defer h.Close()

	var failures uint64
	ran := 0
	for _, name := range mixes {
		fmt.Fprintf(os.Stderr, "running %s for %v at %.0f/s...\n", name, *duration, *rate)
		col := loadgen.NewCollector()
		if reg != nil {
			col.Publish(reg, metrics.L("mix", name))
		}
		runCtx, stopProgress := context.WithCancel(ctx)
		if *progress > 0 && !*quiet {
			go progressLoop(runCtx, col, *progress)
		}
		res, err := h.RunMixWith(ctx, name, pattern, *duration, *inflight, col)
		stopProgress()
		if err != nil {
			return fmt.Errorf("mix %s: %w", name, err)
		}
		res.Format(os.Stdout)
		failures += res.TotalErrors()
		ran++
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "interrupted; reported what completed")
			break
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d unexpected (non-429) errors across %d mixes", failures, ran)
	}
	return nil
}

// progressLoop prints one status line per interval while a mix runs:
// per-endpoint throughput over the last interval (not cumulative, so rate
// changes are visible immediately) plus cumulative p50/p99.
//
//fp:allow-file walltime the load harness drives and reports real wall-clock throughput
func progressLoop(ctx context.Context, col *loadgen.Collector, interval time.Duration) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	prev := map[string]uint64{}
	start := time.Now()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			stats := col.Stats(time.Since(start))
			if len(stats) == 0 {
				continue
			}
			parts := make([]string, 0, len(stats))
			for _, s := range stats {
				delta := s.Count - prev[s.Endpoint]
				prev[s.Endpoint] = s.Count
				parts = append(parts, fmt.Sprintf("%s %.0f/s p50 %s p99 %s",
					s.Endpoint, float64(delta)/interval.Seconds(), fmtDur(s.P50), fmtDur(s.P99)))
			}
			fmt.Fprintf(os.Stderr, "  [%5.1fs] %s\n", time.Since(start).Seconds(), strings.Join(parts, " | "))
		}
	}
}

// fmtDur renders a latency compactly at the precision that matters for it.
func fmtDur(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.0fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

func resolveMixes(spec string) ([]string, error) {
	if spec == "" || spec == "all" {
		return loadgen.MixNames(), nil
	}
	known := map[string]bool{}
	for _, m := range loadgen.MixNames() {
		known[m] = true
	}
	var out []string
	for _, name := range splitList(spec) {
		if !known[name] {
			return nil, fmt.Errorf("unknown mix %q (have: all, %s)", name, strings.Join(loadgen.MixNames(), ", "))
		}
		out = append(out, name)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no mixes in %q", spec)
	}
	return out, nil
}

func splitList(list string) []string {
	var out []string
	for _, s := range strings.Split(list, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}

// Command bench is the repository's benchmark: four closed-loop workloads
// driven by one caller against the real daemons running as child
// processes, five end-to-end metrics computed over host-quiet windows, a
// correctness check per workload, and a traced in-process run that times
// each layer's entry points from outside. bench/README.md describes the
// method and every metric; BENCHMARK.json at the repository root is the
// contract.
//
//	go run ./bench -workload crawl-single
//	go run ./bench -workload all -seconds 30
//	go run ./bench -workload crawl-ring -trace 1
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"syscall"
)

// outDir holds everything a run writes: built daemons, scratch data,
// children's output and the span files. It is ignored by git.
const outDir = "bench/out"

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "all", "workload to run: crawl-single, crawl-ring, churn-wal, audit-cold, or all")
		seed    = flag.Uint64("seed", defaultSeed, "fixture and request-stream seed; the golden digests belong to the default")
		seconds = flag.Int("seconds", 16, "length of the timed phase, in one-second windows")
		trace   = flag.Int("trace", 0, "1 runs the in-process layer ladder first and reports the per-layer metrics")
		worker  = flag.String("churn-worker", "", "internal: run as the churn-wal worker over this WAL directory")
		fixture = flag.String("fixture", "", "internal: snapshot the churn worker seeds its WAL from")
	)
	flag.Parse()
	if *worker != "" {
		if err := churnWorker(*worker, *fixture, *seed, os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench worker:", err)
			return 1
		}
		return 0
	}
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: go run ./bench [-workload name|all] [-seed n] [-seconds n] [-trace 0|1]")
		return 2
	}
	var selected []workload
	if *name == "all" {
		selected = workloads
	} else if wl, ok := workloadByName(*name); ok {
		selected = []workload{wl}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}

	jan := &janitor{}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		jan.close()
		os.Exit(130)
	}()
	defer jan.close()

	if err := benchmark(jan, selected, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

var errIncorrect = errors.New("a correctness check failed")

func benchmark(jan *janitor, selected []workload, seed uint64, seconds int, traced bool) error {
	if _, err := os.Stat("go.mod"); err != nil {
		return errors.New("run from the repository root: go run ./bench")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	pid := strconv.Itoa(os.Getpid())
	env := &runEnv{
		jan:     jan,
		binDir:  filepath.Join(outDir, "bin"),
		workDir: filepath.Join(outDir, "work-"+pid),
		logDir:  filepath.Join(outDir, "logs-"+pid),
		self:    self,
		seconds: seconds,
	}
	for _, dir := range []string{env.workDir, env.logDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	jan.addDir(env.workDir)
	if err := buildDaemons(env.binDir); err != nil {
		return err
	}

	fx, store, err := buildFixture(seed, filepath.Join(env.workDir, "fixture.snap"))
	if err != nil {
		return err
	}
	env.fx = fx
	fmt.Printf("fixture seed=%d accounts=%d snapshot_bytes=%d build_s=%.3f write_s=%.3f\n",
		fx.Seed, fx.Accounts, fx.SnapshotBytes, fx.BuildSeconds, fx.WriteSeconds)

	// Building used every CPU; measuring uses one (see pinToOneCPU). A
	// host that forbids pinning still gets a run, only a noisier one.
	if env.cpu, err = pinToOneCPU(); err != nil {
		env.cpu = -1
		fmt.Printf("not pinned: %v\n", err)
	} else {
		fmt.Printf("pinned to cpu %d\n", env.cpu)
	}
	env.clock = startClockMeter()
	defer env.clock.close()

	ladder := map[string]float64{}
	if traced {
		if ladder, err = runLadder(env, store); err != nil {
			return err
		}
	}
	// The driver must not carry a 1.5M-account heap through the timed
	// phases: its collector would compete with the servers for the CPU.
	store = nil
	runtime.GC()
	debug.FreeOSMemory()

	failed := false
	for _, wl := range selected {
		res, err := runWorkload(env, wl, traced)
		if err != nil {
			keepLogs(env)
			return err
		}
		for k, v := range ladder {
			res.Values[k] = v
		}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		if err := report(os.Stdout, res, defs); err != nil {
			return err
		}
		failed = failed || !res.Correct
	}
	if failed {
		keepLogs(env)
		return errIncorrect
	}
	os.RemoveAll(env.logDir)
	return nil
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every measured value by name with its unit, then the
// result line holding the metrics in defs.
func report(w io.Writer, res runResult, defs []metricDef) error {
	fmt.Fprintf(w, "workload %s ops_attempted=%d ops_failed=%d ops_timed=%d windows_used=%d selected_s=%.2f\n",
		res.Workload, res.Stats.Attempted, res.Stats.Failed, res.Stats.Timed, res.Stats.WindowsUsed, res.Stats.SelectedSeconds)
	for _, p := range res.Problems {
		fmt.Fprintf(w, "  INCORRECT %s\n", p)
	}
	names := make([]string, 0, len(res.Values))
	for k := range res.Values {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		unit, _ := unitOf(k)
		fmt.Fprintf(w, "  %-40s %14.4f %s\n", k, res.Values[k], unit)
	}
	line := resultLine{
		Correct:   res.Correct,
		Attempted: max(res.Stats.Attempted, 1),
		Failed:    res.Stats.Failed,
	}
	var err error
	if line.Metrics, err = resultMetrics(res, defs); err != nil {
		return err
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// resultMetrics returns the metrics in defs as the result line carries
// them, and refuses a run whose values and declarations disagree: a value
// nobody declared, a declared metric nobody measured (it would read 0, the
// best a lower-is-better metric can do), or a metric of one workload's
// children measured on another. Only a metric of children the workload does
// not start is filled in, with the 0 that says the layer did no work.
func resultMetrics(res runResult, defs []metricDef) (map[string]metricValue, error) {
	wl, _ := workloadByName(res.Workload)
	for k := range res.Values {
		if _, ok := unitOf(k); !ok {
			return nil, fmt.Errorf("metric %q is measured but not declared", k)
		}
		if fromChildren(k) && !slices.Contains(wl.Layers, k) {
			return nil, fmt.Errorf("metric %q is measured on %s, which does not list it", k, res.Workload)
		}
	}
	out := map[string]metricValue{}
	for _, d := range defs {
		v, ok := res.Values[d.Name]
		bypassed := fromChildren(d.Name) && !slices.Contains(wl.Layers, d.Name)
		if !ok && !bypassed {
			return nil, fmt.Errorf("metric %q is declared but %s did not measure it", d.Name, res.Workload)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

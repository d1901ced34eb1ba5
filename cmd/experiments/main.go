// Command experiments regenerates every table and figure of the paper:
//
//	experiments -all                 # everything (default)
//	experiments -table1              # Table I   (API limits)
//	experiments -table2              # Table II  (response times)
//	experiments -table3              # Table III (analysis results)
//	experiments -order               # §IV-B follower-order verification
//	experiments -crawl               # §IV-B crawl-cost estimates (Obama ≈27 days)
//	experiments -anecdote            # §II-A bought-followers anecdote
//	experiments -deepdive            # §II-A Deep Dive comparison
//	experiments -fceval              # §III  rule sets vs feature sets vs classifiers
//	experiments -monitor             # 27-day continuous watch over a churning target
//
// Use -scale to trade memory for fidelity on the high class (default
// 120000 materialised followers per account) and -csvdir to also export
// Tables II/III as CSV.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"fakeproject/internal/core"
	"fakeproject/internal/experiments"
	"fakeproject/internal/fc"
	"fakeproject/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run executes the experiments args select and prints their tables to out
// (progress notes go to stderr).
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		all         = fs.Bool("all", false, "run every experiment")
		table1      = fs.Bool("table1", false, "print Table I (API limits)")
		table2      = fs.Bool("table2", false, "run Table II (response times)")
		table3      = fs.Bool("table3", false, "run Table III (analysis results)")
		order       = fs.Bool("order", false, "run the follower-order experiment")
		crawl       = fs.Bool("crawl", false, "print crawl-cost estimates")
		anecdote    = fs.Bool("anecdote", false, "run the bought-followers anecdote")
		deepdive    = fs.Bool("deepdive", false, "run the Deep Dive comparison")
		fceval      = fs.Bool("fceval", false, "run the FC methodology evaluation")
		ablation    = fs.Bool("ablation", false, "run the sampling-window ablation")
		coverage    = fs.Bool("coverage", false, "run the FC confidence-interval coverage check")
		monitor     = fs.Bool("monitor", false, "replay a 27-day continuous watch over an Obama-scale churning target")
		seed        = fs.Uint64("seed", 20140301, "simulation seed")
		scale       = fs.Int("scale", 120000, "max materialised followers per account")
		csvdir      = fs.String("csvdir", "", "directory for CSV exports (optional)")
		concurrency = fs.Int("concurrency", 1, "run Table III audits through the auditd scheduler with this many workers (1 = serial)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	selected := *table1 || *table2 || *table3 || *order || *crawl || *anecdote || *deepdive || *fceval || *ablation || *coverage || *monitor
	if *all || !selected {
		*table1, *table2, *table3 = true, true, true
		*order, *crawl, *anecdote, *deepdive, *fceval, *ablation, *coverage = true, true, true, true, true, true, true
		*monitor = true
	}

	needSim := *table2 || *table3 || *order || *anecdote || *deepdive || *crawl || *ablation || *coverage || *monitor
	var sim *experiments.Simulation
	if needSim {
		fmt.Fprintf(os.Stderr, "building simulation (seed %d, scale cap %d)...\n", *seed, *scale)
		var err error
		sim, err = experiments.NewSimulation(experiments.SimConfig{
			Seed:         *seed,
			ScaleCap:     *scale,
			WithDeepDive: *deepdive,
		})
		if err != nil {
			return fmt.Errorf("building simulation: %w", err)
		}
	}

	if *table1 {
		section(out, "Table I: Twitter APIs: type and limitations to API calls")
		if err := report.TableI(out); err != nil {
			return err
		}
	}
	if *table2 {
		section(out, "Table II: Response time to first analysis request")
		rows, err := sim.RunTableII()
		if err != nil {
			return err
		}
		if err := report.TableII(out, rows); err != nil {
			return err
		}
		if err := exportCSV(*csvdir, "table2.csv", func(f *os.File) error {
			return report.TableIICSV(f, rows)
		}); err != nil {
			return err
		}
	}
	if *table3 {
		section(out, "Table III: Fake follower analysis results")
		var (
			rows []experiments.TableIIIRow
			err  error
		)
		if *concurrency > 1 {
			fmt.Fprintf(os.Stderr, "running Table III through auditd (%d workers)...\n", *concurrency)
			rows, err = sim.RunTableIIIConcurrent(*concurrency)
		} else {
			rows, err = sim.RunTableIII()
		}
		if err != nil {
			return err
		}
		if err := report.TableIII(out, rows); err != nil {
			return err
		}
		if err := exportCSV(*csvdir, "table3.csv", func(f *os.File) error {
			return report.TableIIICSV(f, rows)
		}); err != nil {
			return err
		}
	}
	if *order {
		section(out, "Section IV-B: follower list ordering")
		res, err := sim.RunFollowerOrder(13, 7, 60)
		if err != nil {
			return err
		}
		if err := report.FollowerOrder(out, res); err != nil {
			return err
		}
	}
	if *crawl {
		section(out, "Section IV-B: full-crawl cost (one token)")
		var ests []experiments.CrawlEstimate
		for _, acct := range core.PaperTestbed() {
			if acct.Class == core.ClassHigh {
				ests = append(ests, experiments.EstimateFullCrawl(acct.Followers, 1))
			}
		}
		if err := report.CrawlEstimates(out, ests); err != nil {
			return err
		}
		val, err := sim.ValidateCrawlModel(30000)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "model validation at 30K followers: analytic %v vs simulated %v (err %.2f%%)\n",
			val.Analytic, val.Simulated, val.RelativeErr*100)
	}
	if *anecdote {
		section(out, "Section II-A: the bought-followers anecdote")
		res, err := sim.RunAnecdote(100000, 10000)
		if err != nil {
			return err
		}
		if err := report.Anecdote(out, res); err != nil {
			return err
		}
	}
	if *deepdive {
		section(out, "Section II-A: Fakers vs Deep Dive")
		results, err := sim.RunDeepDive()
		if err != nil {
			return err
		}
		if err := report.DeepDive(out, results); err != nil {
			return err
		}
	}
	if *ablation {
		section(out, "Ablation: the FC classifier behind the tools' sampling windows")
		const subject = "PC_Chiambretti"
		rows, err := sim.RunSamplingAblation(subject)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "subject: @%s\n", subject)
		if err := report.SamplingAblation(out, rows); err != nil {
			return err
		}
		points, err := sim.RunWindowSweep(subject, []int{1000, 2000, 5000, 10000, 35000, 0}, 2000)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "\nwindow sweep (perfect detector, sampling error only):")
		if err := report.WindowSweep(out, points); err != nil {
			return err
		}
	}
	if *coverage {
		section(out, "Soundness: empirical coverage of the FC 95% intervals")
		res, err := sim.RunCoverage(30000, 40)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%d independent audits of one population (truth: %.1f%% inactive)\n"+
			"  covered: %d/%d (%.0f%%, nominal 95%%)\n  max |error|: %.2f points (design margin ±1)\n",
			res.Trials, res.TruthInactive, res.Covered, res.Trials, 100*res.Rate(), res.MaxAbsError)
	}
	if *monitor {
		section(out, "Monitoring: a 27-day continuous watch over a churning target")
		fmt.Fprintln(os.Stderr, "replaying 27 simulated days of churn under continuous monitoring...")
		res, err := sim.RunMonitorWatch(experiments.MonitorConfig{
			Followers: min(*scale, 120000),
			ProbeDay:  12,
		})
		if err != nil {
			return err
		}
		if err := report.MonitorWatch(out, res); err != nil {
			return err
		}
	}
	if *fceval {
		section(out, "Section III: detection methodologies on the gold standard")
		gold, err := fc.BuildGoldStandard(800, *seed+100)
		if err != nil {
			return err
		}
		ruleResults, err := fc.EvaluateRuleSets(gold)
		if err != nil {
			return err
		}
		featResults, err := fc.EvaluateFeatureSets(gold, *seed+101)
		if err != nil {
			return err
		}
		clsResults, err := fc.EvaluateClassifiers(gold, *seed+102)
		if err != nil {
			return err
		}
		all := append(ruleResults, featResults...)
		all = append(all, clsResults...)
		if err := report.MethodResults(out, all); err != nil {
			return err
		}
	}
	return nil
}

func section(w io.Writer, title string) {
	fmt.Fprintf(w, "\n===== %s =====\n", title)
}

func exportCSV(dir, name string, write func(*os.File) error) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("creating csv dir: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return fmt.Errorf("creating %s: %w", name, err)
	}
	defer f.Close()
	if err := write(f); err != nil {
		return fmt.Errorf("writing %s: %w", name, err)
	}
	return nil
}

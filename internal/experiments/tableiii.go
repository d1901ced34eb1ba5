package experiments

import (
	"fmt"
	"time"

	"fakeproject/internal/core"
	"fakeproject/internal/simclock"
	"fakeproject/internal/stats"
)

// TableIIIRow is one measured row of Table III: the four tools' verdict
// percentages for one target, next to the published values.
type TableIIIRow struct {
	Account core.PaperAccount
	// Measured holds each tool's report, keyed by tool name.
	Measured map[string]core.Report
}

// GenuineSpread returns the max-min spread of the genuine percentage across
// tools — the per-account disagreement the paper discusses ("it seems that
// the more followers a target has, the less the fake followers analytics
// agree").
func (r TableIIIRow) GenuineSpread() float64 {
	var vals []float64
	for _, rep := range r.Measured {
		vals = append(vals, rep.GenuinePct)
	}
	return stats.MaxSpread(vals)
}

// GenuineDisagreement returns the mean absolute pairwise difference of the
// genuine percentage across tools.
func (r TableIIIRow) GenuineDisagreement() float64 {
	var vals []float64
	for _, rep := range r.Measured {
		vals = append(vals, rep.GenuinePct)
	}
	return stats.PairwiseDisagreement(vals)
}

// snapshotAuditor is one tool as Table III consults it: each analysis runs
// on an engine, an API client with untouched rate-limit budgets and a
// virtual clock of its own, started at the instant the table was begun.
// Nothing another analysis did — its sleeps, its spent budget, its jitter
// draws — reaches this one, so a row is a function of (seed, tool, target,
// platform state, that instant) and the table reads the same in whatever
// order, and on however many workers, it is computed. (On the simulation's
// shared clock every audit's sleeps move every later audit's observation
// instant, and accounts whose last tweet sits near the 90-day line change
// verdict with it.)
type snapshotAuditor struct {
	sim  *Simulation
	tool string
	at   time.Time
}

// Name implements core.Auditor.
func (a snapshotAuditor) Name() string { return a.tool }

// Audit implements core.Auditor.
func (a snapshotAuditor) Audit(screenName string) (core.Report, error) {
	engine, err := a.sim.toolFactories(simclock.NewVirtual(a.at))[a.tool](0)
	if err != nil {
		return core.Report{}, err
	}
	return engine.Audit(screenName)
}

// RunTableIII reproduces the fake-follower analysis results of Section IV-D:
// all four tools over every testbed account, every verdict a fresh analysis
// of the platform as it stands (see snapshotAuditor).
func (s *Simulation) RunTableIII() ([]TableIIIRow, error) {
	at := s.Clock.Now()
	var rows []TableIIIRow
	for _, acct := range s.testbed {
		row := TableIIIRow{
			Account:  acct,
			Measured: make(map[string]core.Report, 4),
		}
		for _, tool := range ToolOrder {
			report, err := snapshotAuditor{sim: s, tool: tool, at: at}.Audit(acct.ScreenName)
			if err != nil {
				return nil, fmt.Errorf("table III, %s on %s: %w", tool, acct.ScreenName, err)
			}
			row.Measured[tool] = report
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// DisagreementByClass aggregates the genuine-percentage disagreement per
// account size class, the trend statistic behind the paper's "the more
// followers, the less they agree" observation.
func DisagreementByClass(rows []TableIIIRow) map[core.AccountClass]float64 {
	sums := make(map[core.AccountClass]float64)
	counts := make(map[core.AccountClass]int)
	for _, row := range rows {
		sums[row.Account.Class] += row.GenuineDisagreement()
		counts[row.Account.Class]++
	}
	out := make(map[core.AccountClass]float64, len(sums))
	for class, sum := range sums {
		out[class] = sum / float64(counts[class])
	}
	return out
}

// InactiveUndercount reports, per tool, the mean (FC inactive − tool
// inactive) over rows — positive values quantify the paper's finding that
// newest-follower sampling systematically underestimates inactive
// followers.
func InactiveUndercount(rows []TableIIIRow) map[string]float64 {
	sums := make(map[string]float64)
	n := 0
	for _, row := range rows {
		fcRep, ok := row.Measured[ToolFC]
		if !ok {
			continue
		}
		n++
		for tool, rep := range row.Measured {
			if tool == ToolFC || !rep.HasInactiveClass {
				continue
			}
			sums[tool] += fcRep.InactivePct - rep.InactivePct
		}
	}
	out := make(map[string]float64, len(sums))
	for tool, sum := range sums {
		out[tool] = sum / float64(n)
	}
	return out
}

package experiments

import (
	"context"
	"fmt"

	"fakeproject/internal/auditd"
	"fakeproject/internal/core"
	"fakeproject/internal/simclock"
	"fakeproject/internal/twitterapi"
)

// ToolFactories returns per-worker engine factories over this simulation's
// platform, for the auditd serving layer. Every worker receives its own
// engine instances and API clients (own rate-limit token budgets); sampling
// seeds are the simulation's own engines', so a target's verdict does not
// depend on which worker — or whether the serving layer at all — audits it.
// The expensive FC classifier is shared across workers and with the
// simulation's own engine, since TrainDefault memoises per seed and
// prediction is read-only.
func (s *Simulation) ToolFactories() map[string]auditd.Factory {
	return s.toolFactories(s.Clock)
}

// toolFactories builds the factories over clients and engines that keep
// time on clock.
func (s *Simulation) toolFactories(clock simclock.Clock) map[string]auditd.Factory {
	return auditd.StandardFactories(
		func(tool string, worker int) twitterapi.Client {
			return twitterapi.NewDirectClient(s.Service, clock, clientConfigs[tool])
		},
		auditd.ToolSetConfig{
			Clock:            clock,
			Seed:             s.cfg.Seed,
			NominalFollowers: s.nominal,
		},
	)
}

// NewAuditService starts an auditd service over this simulation. Zero-value
// config fields default to the simulation's tools, tool order and clock.
func (s *Simulation) NewAuditService(cfg auditd.Config) (*auditd.Service, error) {
	if cfg.Tools == nil {
		cfg.Tools = s.ToolFactories()
	}
	if cfg.ToolOrder == nil {
		cfg.ToolOrder = append([]string(nil), ToolOrder...)
	}
	if cfg.Clock == nil {
		cfg.Clock = s.Clock
	}
	return auditd.New(cfg)
}

// RunTableIIIConcurrent reproduces the Table III analyses through the
// auditd scheduler: one job per testbed account, all four tools, spread
// over the worker pool. Every analysis is a snapshotAuditor's, as in the
// serial RunTableIII, so the rows are the serial rows exactly — whatever
// the pool size and however the scheduler interleaves the jobs — and arrive
// with N-way parallelism instead of the serial account×tool loop.
func (s *Simulation) RunTableIIIConcurrent(workers int) ([]TableIIIRow, error) {
	at := s.Clock.Now()
	tools := make(map[string]auditd.Factory, len(ToolOrder))
	for _, tool := range ToolOrder {
		auditor := snapshotAuditor{sim: s, tool: tool, at: at}
		tools[tool] = func(int) (core.Auditor, error) { return auditor, nil }
	}
	svc, err := s.NewAuditService(auditd.Config{
		Workers:  workers,
		QueueCap: 2*len(s.testbed) + 8,
		Tools:    tools,
	})
	if err != nil {
		return nil, fmt.Errorf("starting audit service: %w", err)
	}
	defer svc.Shutdown(context.Background())

	ids := make([]auditd.JobID, 0, len(s.testbed))
	for _, acct := range s.testbed {
		snap, err := svc.Submit(auditd.JobSpec{Target: acct.ScreenName})
		if err != nil {
			return nil, fmt.Errorf("submitting %s: %w", acct.ScreenName, err)
		}
		ids = append(ids, snap.ID)
	}

	rows := make([]TableIIIRow, 0, len(s.testbed))
	for i, acct := range s.testbed {
		snap, err := svc.Await(context.Background(), ids[i])
		if err != nil {
			return nil, fmt.Errorf("awaiting %s: %w", acct.ScreenName, err)
		}
		row := TableIIIRow{
			Account:  acct,
			Measured: make(map[string]core.Report, len(snap.Results)),
		}
		for tool, res := range snap.Results {
			if res.Err != "" {
				return nil, fmt.Errorf("table III, %s on %s: %s", tool, acct.ScreenName, res.Err)
			}
			row.Measured[tool] = res.Report
		}
		rows = append(rows, row)
	}
	return rows, nil
}

package monitord

import (
	"context"
	"fmt"
	"testing"
	"time"

	"fakeproject/internal/auditd"
	"fakeproject/internal/core"
	"fakeproject/internal/simclock"
)

// benchMonitor builds a monitor over instant stub tools watching `targets`
// accounts on a 24h cadence.
func benchMonitor(b *testing.B, targets, tools int) (*Monitor, *simclock.Virtual) {
	b.Helper()
	clock := simclock.NewVirtualAtEpoch()
	factories := make(map[string]auditd.Factory, tools)
	for i := 0; i < tools; i++ {
		name := fmt.Sprintf("tool%d", i)
		factories[name] = func(int) (core.Auditor, error) {
			return benchTool{name: name}, nil
		}
	}
	svc, err := auditd.New(auditd.Config{Workers: 4, Clock: clock, Tools: factories})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = svc.Shutdown(context.Background()) })
	mon, err := New(Config{Service: svc, Clock: clock})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(mon.Close)
	for i := 0; i < targets; i++ {
		if err := mon.Watch(WatchSpec{Target: fmt.Sprintf("t%d", i), Cadence: 24 * time.Hour}); err != nil {
			b.Fatal(err)
		}
	}
	return mon, clock
}

type benchTool struct{ name string }

func (t benchTool) Name() string { return t.name }
func (t benchTool) Audit(target string) (core.Report, error) {
	return core.Report{Tool: t.name, FakePct: 10, GenuinePct: 90}, nil
}

// BenchmarkMonitorTick measures one full re-audit round: 8 watched targets
// × 4 tools scheduled, executed, ingested and rule-checked — the per-
// simulated-day cost of the monitoring plane itself (engine work excluded
// by instant stub tools).
func BenchmarkMonitorTick(b *testing.B) {
	mon, clock := benchMonitor(b, 8, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clock.Advance(24 * time.Hour)
		n, err := mon.Tick(context.Background())
		if err != nil || n != 8 {
			b.Fatalf("tick ran %d watches: %v", n, err)
		}
	}
}

// BenchmarkSeriesQuery measures the read path with full rings.
func BenchmarkSeriesQuery(b *testing.B) {
	mon, clock := benchMonitor(b, 1, 4)
	for i := 0; i < 300; i++ { // overfill the default 256-cap rings
		clock.Advance(24 * time.Hour)
		if _, err := mon.Tick(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series, ok := mon.Series("t0")
		if !ok || len(series) != 4 {
			b.Fatal("series query failed")
		}
	}
}

package monitord

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"fakeproject/internal/auditd"
	"fakeproject/internal/core"
	"fakeproject/internal/simclock"
	"fakeproject/internal/twitter"
)

// frame is one scripted platform observation.
type frame struct {
	fakePct   float64
	followers int
}

// scriptedAuditor replays a fixed sequence of observations, one per Audit
// call, holding the last frame once the script runs out — a platform whose
// state the test controls round by round. A non-empty failFor makes audits
// of that target error.
type scriptedAuditor struct {
	name    string
	failFor string

	mu     sync.Mutex
	frames []frame
	cursor int
	calls  int
}

func (a *scriptedAuditor) Name() string { return a.name }

func (a *scriptedAuditor) Audit(target string) (core.Report, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.calls++
	if a.failFor != "" && a.failFor == target {
		return core.Report{}, errors.New("user " + target + " not found")
	}
	f := a.frames[a.cursor]
	if a.cursor < len(a.frames)-1 {
		a.cursor++
	}
	return core.Report{
		Tool:       a.name,
		Target:     twitter.Profile{User: twitter.User{ScreenName: target}, FollowersCount: f.followers},
		FakePct:    f.fakePct,
		GenuinePct: 100 - f.fakePct,
	}, nil
}

func (a *scriptedAuditor) callCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.calls
}

// harness builds an audit service + monitor over scripted tools on one
// virtual clock.
func harness(t *testing.T, cfg Config, tools ...*scriptedAuditor) (*Monitor, *auditd.Service, *simclock.Virtual) {
	t.Helper()
	clock := simclock.NewVirtualAtEpoch()
	factories := make(map[string]auditd.Factory, len(tools))
	for _, tool := range tools {
		tool := tool
		factories[tool.name] = func(int) (core.Auditor, error) { return tool, nil }
	}
	svc, err := auditd.New(auditd.Config{
		Workers: 2,
		Clock:   clock,
		Tools:   factories,
		// A never-expiring cache is the adversarial case for a monitor:
		// only explicit invalidation yields fresh observations.
		CacheTTL: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = svc.Shutdown(context.Background()) })
	cfg.Service = svc
	cfg.Clock = clock
	mon, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mon.Close)
	return mon, svc, clock
}

func mustWatch(t *testing.T, mon *Monitor, spec WatchSpec) {
	t.Helper()
	if err := mon.Watch(spec); err != nil {
		t.Fatal(err)
	}
}

func mustTick(t *testing.T, mon *Monitor) int {
	t.Helper()
	n, err := mon.Tick(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestWatchValidation(t *testing.T) {
	mon, _, _ := harness(t, Config{}, &scriptedAuditor{name: "alpha", frames: []frame{{}}})
	if err := mon.Watch(WatchSpec{Target: "  "}); err == nil {
		t.Fatal("empty target accepted")
	}
	if err := mon.Watch(WatchSpec{Target: "x", Tools: []string{"nosuch"}}); err == nil {
		t.Fatal("unknown tool accepted")
	}
	if err := mon.Watch(WatchSpec{Target: "x", Cadence: -time.Hour}); err == nil {
		t.Fatal("negative cadence accepted")
	}
	if err := mon.Unwatch("never"); err == nil {
		t.Fatal("unwatch of unknown target succeeded")
	}
}

func TestCadenceSchedulesRounds(t *testing.T) {
	alpha := &scriptedAuditor{name: "alpha", frames: []frame{{fakePct: 5, followers: 1000}}}
	mon, _, clock := harness(t, Config{}, alpha)
	mustWatch(t, mon, WatchSpec{Target: "davc", Cadence: 24 * time.Hour})

	if n := mustTick(t, mon); n != 1 {
		t.Fatalf("first tick ran %d watches, want 1 (baseline due immediately)", n)
	}
	if n := mustTick(t, mon); n != 0 {
		t.Fatalf("second tick ran %d watches, want 0 (not yet due)", n)
	}
	clock.Advance(24 * time.Hour)
	if n := mustTick(t, mon); n != 1 {
		t.Fatalf("tick after a day ran %d watches, want 1", n)
	}
	series, ok := mon.Series("davc")
	if !ok || len(series["alpha"]) != 2 {
		t.Fatalf("series = %v, %v; want 2 alpha points", series, ok)
	}
	status := mon.Watches()
	if len(status) != 1 || status[0].Rounds != 2 {
		t.Fatalf("watch status = %+v, want 2 rounds", status)
	}
	if !status[0].NextDue.After(clock.Now().Add(23 * time.Hour)) {
		t.Fatalf("next due %v not ~a day out from %v", status[0].NextDue, clock.Now())
	}
}

func TestFreshObservationsDespiteEternalCache(t *testing.T) {
	alpha := &scriptedAuditor{name: "alpha", frames: []frame{
		{fakePct: 5, followers: 1000},
		{fakePct: 9, followers: 1100},
		{fakePct: 13, followers: 1200},
	}}
	mon, _, clock := harness(t, Config{}, alpha)
	mustWatch(t, mon, WatchSpec{Target: "davc", Cadence: 24 * time.Hour})
	for i := 0; i < 3; i++ {
		mustTick(t, mon)
		clock.Advance(24 * time.Hour)
	}
	series, _ := mon.Series("davc")
	points := series["alpha"]
	if len(points) != 3 {
		t.Fatalf("got %d points, want 3", len(points))
	}
	for i, want := range []float64{5, 9, 13} {
		if points[i].FakePct != want {
			t.Fatalf("point %d fake = %.1f, want %.1f (stale cache?)", i, points[i].FakePct, want)
		}
		if points[i].Cached {
			t.Fatalf("point %d served from cache", i)
		}
	}
	if alpha.callCount() != 3 {
		t.Fatalf("engine ran %d times, want 3", alpha.callCount())
	}
}

func TestAlertRules(t *testing.T) {
	alpha := &scriptedAuditor{name: "alpha", frames: []frame{
		{fakePct: 8, followers: 10000},  // baseline
		{fakePct: 9, followers: 10150},  // quiet day
		{fakePct: 34, followers: 14000}, // purchase burst lands
		{fakePct: 30, followers: 13950}, // settles
		{fakePct: 12, followers: 9500},  // purge sweep
	}}
	mon, _, clock := harness(t, Config{}, alpha)
	mustWatch(t, mon, WatchSpec{
		Target:  "davc",
		Cadence: 24 * time.Hour,
		Rules:   Rules{FakeThresholdPct: 20, SpikePct: 10, FollowRatePerDay: 1000},
	})
	for i := 0; i < 5; i++ {
		mustTick(t, mon)
		clock.Advance(24 * time.Hour)
	}

	kinds := map[AlertKind]int{}
	for _, a := range mon.Alerts("davc") {
		kinds[a.Kind]++
		if a.Target != "davc" || a.Tool != "alpha" || a.Message == "" {
			t.Fatalf("malformed alert %+v", a)
		}
	}
	if kinds[ThresholdAlert] != 1 {
		t.Fatalf("threshold alerts = %d, want 1 (single upward crossing)", kinds[ThresholdAlert])
	}
	if kinds[SpikeAlert] != 2 {
		t.Fatalf("spike alerts = %d, want 2 (burst up, purge down)", kinds[SpikeAlert])
	}
	if kinds[BurstAlert] != 1 {
		t.Fatalf("burst alerts = %d, want 1", kinds[BurstAlert])
	}
	if kinds[PurgeAlert] != 1 {
		t.Fatalf("purge alerts = %d, want 1", kinds[PurgeAlert])
	}
	// Quiet days raise nothing: total is exactly the sum above.
	if len(mon.Alerts("")) != 5 {
		t.Fatalf("total alerts = %d, want 5", len(mon.Alerts("")))
	}
}

func TestSeriesRingBounded(t *testing.T) {
	const rounds = seriesCap + 8
	frames := make([]frame, 0, rounds)
	for i := 0; i < rounds; i++ {
		frames = append(frames, frame{fakePct: float64(i), followers: 1000 + i})
	}
	alpha := &scriptedAuditor{name: "alpha", frames: frames}
	mon, _, clock := harness(t, Config{}, alpha)
	mustWatch(t, mon, WatchSpec{Target: "davc", Cadence: time.Hour, Rules: Rules{
		FakeThresholdPct: -1, SpikePct: -1, FollowRatePerDay: -1,
	}})
	for i := 0; i < rounds; i++ {
		mustTick(t, mon)
		clock.Advance(time.Hour)
	}
	series, _ := mon.Series("davc")
	points := series["alpha"]
	if len(points) != seriesCap {
		t.Fatalf("ring holds %d points, want %d", len(points), seriesCap)
	}
	for i, p := range points {
		if want := float64(8 + i); p.FakePct != want {
			t.Fatalf("ring[%d] fake = %.0f, want %.0f (oldest evicted first)", i, p.FakePct, want)
		}
	}
	if got := points[seriesCap-1].Round; got != rounds {
		t.Fatalf("newest round = %d, want %d", got, rounds)
	}
}

func TestDisabledRulesRaiseNothing(t *testing.T) {
	alpha := &scriptedAuditor{name: "alpha", frames: []frame{
		{fakePct: 0, followers: 1000},
		{fakePct: 90, followers: 99000},
	}}
	mon, _, clock := harness(t, Config{}, alpha)
	mustWatch(t, mon, WatchSpec{Target: "davc", Cadence: time.Hour, Rules: Rules{
		FakeThresholdPct: -1, SpikePct: -1, FollowRatePerDay: -1,
	}})
	mustTick(t, mon)
	clock.Advance(time.Hour)
	mustTick(t, mon)
	if alerts := mon.Alerts(""); len(alerts) != 0 {
		t.Fatalf("disabled rules raised %v", alerts)
	}
}

// TestAlertRulesOncePerRound: watching with several tools, one platform
// burst raises exactly one follow-burst alert per event, while the verdict
// rules still fire per tool series.
func TestAlertRulesOncePerRound(t *testing.T) {
	mkFrames := func() []frame {
		return []frame{
			{fakePct: 8, followers: 10000},
			{fakePct: 34, followers: 14000}, // burst lands
		}
	}
	alpha := &scriptedAuditor{name: "alpha", frames: mkFrames()}
	beta := &scriptedAuditor{name: "beta", frames: mkFrames()}
	mon, _, clock := harness(t, Config{}, alpha, beta)
	mustWatch(t, mon, WatchSpec{
		Target:  "davc",
		Cadence: 24 * time.Hour,
		Rules:   Rules{FakeThresholdPct: 20, SpikePct: 10, FollowRatePerDay: 1000},
	})
	mustTick(t, mon)
	clock.Advance(24 * time.Hour)
	mustTick(t, mon)

	kinds := map[AlertKind]int{}
	for _, a := range mon.Alerts("davc") {
		kinds[a.Kind]++
	}
	if kinds[BurstAlert] != 1 {
		t.Fatalf("burst alerts = %d, want 1 (one platform event, two tools)", kinds[BurstAlert])
	}
	if kinds[ThresholdAlert] != 2 || kinds[SpikeAlert] != 2 {
		t.Fatalf("verdict alerts = %+v, want per-tool threshold and spike", kinds)
	}
}

// TestRateRuleSurvivesFirstToolFailure: the burst is still detected when
// the watch's first tool errors on the burst round — the rate rules ride
// whichever tool observes the round first.
func TestRateRuleSurvivesFirstToolFailure(t *testing.T) {
	alpha := &scriptedAuditor{name: "alpha", failFor: "davc"} // always errors
	beta := &scriptedAuditor{name: "beta", frames: []frame{
		{fakePct: 8, followers: 10000},
		{fakePct: 8, followers: 14000},
	}}
	mon, _, clock := harness(t, Config{}, alpha, beta)
	mustWatch(t, mon, WatchSpec{
		Target:  "davc",
		Tools:   []string{"alpha", "beta"}, // the failing tool first
		Cadence: 24 * time.Hour,
		Rules:   Rules{FakeThresholdPct: -1, SpikePct: -1, FollowRatePerDay: 1000},
	})
	mustTick(t, mon)
	clock.Advance(24 * time.Hour)
	mustTick(t, mon)

	var burst int
	for _, a := range mon.Alerts("davc") {
		if a.Kind == BurstAlert {
			burst++
			if a.Tool != "beta" {
				t.Fatalf("burst attributed to %q, want the observing tool beta", a.Tool)
			}
		}
	}
	if burst != 1 {
		t.Fatalf("burst alerts = %d, want 1 despite the first tool failing", burst)
	}
}

// gatedScripted blocks its first Audit call until the gate opens — an
// in-flight interactive analysis the monitor's round can coalesce onto.
type gatedScripted struct {
	scriptedAuditor
	gate chan struct{}
	once sync.Once
}

func (g *gatedScripted) Audit(target string) (core.Report, error) {
	first := false
	g.once.Do(func() { first = true })
	if first {
		<-g.gate
	}
	return g.scriptedAuditor.Audit(target)
}

// TestRoundChasesCoalescedStaleJob: when the round's submission coalesces
// onto an analysis that started before the round (an interactive audit in
// flight across the churn boundary), the monitor chases it with a fresh
// follow-up so the recorded point reflects the round's platform state.
func TestRoundChasesCoalescedStaleJob(t *testing.T) {
	gated := &gatedScripted{
		scriptedAuditor: scriptedAuditor{name: "alpha", frames: []frame{
			{fakePct: 5, followers: 1000},  // the stale in-flight analysis
			{fakePct: 40, followers: 4000}, // post-churn state
		}},
		gate: make(chan struct{}),
	}
	clock := simclock.NewVirtualAtEpoch()
	svc, err := auditd.New(auditd.Config{
		Workers: 2,
		Clock:   clock,
		Tools: map[string]auditd.Factory{
			"alpha": func(int) (core.Auditor, error) { return gated, nil },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = svc.Shutdown(context.Background()) })
	mon, err := New(Config{
		Service: svc,
		Clock:   clock,
		// The round's submissions are in; the blocked interactive job may
		// now finish with its pre-round observation.
		OnRound: func(string, []auditd.JobID) { close(gated.gate) },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mon.Close)
	mustWatch(t, mon, WatchSpec{Target: "davc", Cadence: 24 * time.Hour, Rules: Rules{
		FakeThresholdPct: -1, SpikePct: -1, FollowRatePerDay: -1,
	}})

	// Interactive request starts (and blocks) before the round fires.
	interactive, err := svc.Submit(auditd.JobSpec{Target: "davc", Tools: []string{"alpha"}})
	if err != nil {
		t.Fatal(err)
	}
	// Give the worker a moment to pick the job up so the round genuinely
	// coalesces onto a *running* analysis.
	for i := 0; i < 1000; i++ {
		if snap, _ := svc.Get(interactive.ID); snap.State == auditd.StateRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}

	mustTick(t, mon)
	series, _ := mon.Series("davc")
	points := series["alpha"]
	if len(points) != 1 {
		t.Fatalf("series has %d points, want 1", len(points))
	}
	if points[0].FakePct != 40 {
		t.Fatalf("round recorded the stale coalesced verdict (fake %.0f%%), want the chased fresh 40%%",
			points[0].FakePct)
	}
	// The interactive caller still got its own (pre-round) answer.
	done, err := svc.Await(context.Background(), interactive.ID)
	if err != nil || done.Results["alpha"].Report.FakePct != 5 {
		t.Fatalf("interactive job = %+v, %v", done, err)
	}
}

// TestWatchSurfacesAuditFailures: a watch whose audits fail (e.g. a target
// the backend doesn't know) reports the failure in its status instead of
// silently looking like a quiet target.
func TestWatchSurfacesAuditFailures(t *testing.T) {
	alpha := &scriptedAuditor{name: "alpha", failFor: "ghost",
		frames: []frame{{fakePct: 5, followers: 1000}}}
	mon, _, clock := harness(t, Config{}, alpha)
	mustWatch(t, mon, WatchSpec{Target: "ghost", Cadence: 24 * time.Hour})
	mustWatch(t, mon, WatchSpec{Target: "davc", Cadence: 24 * time.Hour})
	mustTick(t, mon)

	ghost, ok := mon.Status("ghost")
	if !ok || ghost.Rounds != 1 {
		t.Fatalf("ghost status = %+v, %v", ghost, ok)
	}
	if !strings.Contains(ghost.LastError, "not found") {
		t.Fatalf("ghost LastError = %q, want the resolution failure", ghost.LastError)
	}
	if healthy, _ := mon.Status("davc"); healthy.LastError != "" {
		t.Fatalf("healthy watch carries error %q", healthy.LastError)
	}
	// A later clean round clears the sticky error.
	alpha.mu.Lock()
	alpha.failFor = ""
	alpha.mu.Unlock()
	clock.Advance(24 * time.Hour)
	mustTick(t, mon)
	if ghost, _ = mon.Status("ghost"); ghost.LastError != "" {
		t.Fatalf("error not cleared after clean round: %q", ghost.LastError)
	}
}

// TestWatchUpdatePreservesHistory: re-registering a watched target (e.g.
// tightening a rule over HTTP) keeps the accumulated series and schedule
// state instead of silently resetting them.
func TestWatchUpdatePreservesHistory(t *testing.T) {
	alpha := &scriptedAuditor{name: "alpha", frames: []frame{
		{fakePct: 5, followers: 1000},
		{fakePct: 6, followers: 1100},
		{fakePct: 30, followers: 5000},
	}}
	mon, _, clock := harness(t, Config{}, alpha)
	mustWatch(t, mon, WatchSpec{Target: "davc", Cadence: 24 * time.Hour})
	mustTick(t, mon)
	clock.Advance(24 * time.Hour)
	mustTick(t, mon)

	// Tighten the rules mid-watch.
	mustWatch(t, mon, WatchSpec{Target: "davc", Cadence: 24 * time.Hour,
		Rules: Rules{FakeThresholdPct: 15, SpikePct: 10, FollowRatePerDay: 1000}})

	series, _ := mon.Series("davc")
	if len(series["alpha"]) != 2 {
		t.Fatalf("spec update dropped the series: %d points, want 2", len(series["alpha"]))
	}
	st, _ := mon.Status("davc")
	if st.Rounds != 2 || st.Spec.Rules.FakeThresholdPct != 15 {
		t.Fatalf("status after update = %+v", st)
	}
	// The next round still alerts against the *preserved* baseline.
	clock.Advance(24 * time.Hour)
	mustTick(t, mon)
	kinds := map[AlertKind]int{}
	for _, a := range mon.Alerts("davc") {
		kinds[a.Kind]++
	}
	if kinds[ThresholdAlert] != 1 || kinds[BurstAlert] != 1 {
		t.Fatalf("alerts after spec update = %+v, want threshold + burst from preserved history", kinds)
	}
}

func TestTickAfterCloseFails(t *testing.T) {
	mon, _, _ := harness(t, Config{}, &scriptedAuditor{name: "alpha", frames: []frame{{}}})
	mon.Close()
	if _, err := mon.Tick(context.Background()); err != ErrClosed {
		t.Fatalf("Tick after close = %v, want ErrClosed", err)
	}
	if err := mon.Watch(WatchSpec{Target: "davc"}); err != ErrClosed {
		t.Fatalf("Watch after close = %v, want ErrClosed", err)
	}
}

// TestRunLoopOnVirtualClock: the paced loop compresses virtual days into
// wall milliseconds, exactly the 27-days-in-milliseconds property the
// simclock was built for.
func TestRunLoopOnVirtualClock(t *testing.T) {
	frames := make([]frame, 30)
	for i := range frames {
		frames[i] = frame{fakePct: 5, followers: 1000}
	}
	alpha := &scriptedAuditor{name: "alpha", frames: frames}
	mon, _, clock := harness(t, Config{}, alpha)
	mustWatch(t, mon, WatchSpec{Target: "davc", Cadence: 24 * time.Hour, Rules: Rules{
		FakeThresholdPct: -1, SpikePct: -1, FollowRatePerDay: -1,
	}})

	done := make(chan error, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { done <- mon.Run(ctx, 0) }()

	deadline := time.Now().Add(5 * time.Second)
	for {
		series, _ := mon.Series("davc")
		if len(series["alpha"]) >= 27 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Run did not complete 27 virtual days in 5s")
		}
		time.Sleep(time.Millisecond)
	}
	mon.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if elapsed := clock.Now().Sub(simclock.Epoch); elapsed < 26*24*time.Hour {
		t.Fatalf("virtual time advanced only %v", elapsed)
	}
}

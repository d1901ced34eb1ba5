package experiments

import (
	"context"
	"math"
	"testing"

	"fakeproject/internal/auditd"
	"fakeproject/internal/core"
)

// TestAuditServiceMatchesPaper routes audits through the auditd scheduler
// over the shared simulation and checks the service-side verdicts land on
// the published Table III values within the same tolerance as the serial
// runner — parallel scheduling must not change what the tools conclude.
func TestAuditServiceMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("audits the full tool set through the scheduler")
	}
	sim := sharedSmallSim(t)
	rows, err := sim.RunTableIIIConcurrent(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	row := rows[0]
	if row.Account.ScreenName != "davc" {
		t.Fatalf("account = %s", row.Account.ScreenName)
	}
	for _, tool := range ToolOrder {
		if _, ok := row.Measured[tool]; !ok {
			t.Fatalf("missing %s verdict", tool)
		}
	}
	fcRep := row.Measured[ToolFC]
	if d := math.Abs(fcRep.InactivePct - row.Account.FC.Inactive); d > 5 {
		t.Errorf("FC inactive %.1f vs paper %.1f (Δ%.1f)", fcRep.InactivePct, row.Account.FC.Inactive, d)
	}
	if d := math.Abs(fcRep.GenuinePct - row.Account.FC.Genuine); d > 5 {
		t.Errorf("FC genuine %.1f vs paper %.1f (Δ%.1f)", fcRep.GenuinePct, row.Account.FC.Genuine, d)
	}
}

// TestAuditServiceCacheAcrossSubmissions checks the service-level repeat
// behaviour over a real simulation: the second submission of the same
// target answers inline from the result cache.
func TestAuditServiceCacheAcrossSubmissions(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a Socialbakers audit over a built population")
	}
	sim := sharedSmallSim(t)
	svc, err := sim.NewAuditService(auditd.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown(context.Background())

	spec := auditd.JobSpec{Target: "davc", Tools: []string{ToolSB}}
	first, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	done, err := svc.Await(context.Background(), first.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != auditd.StateDone {
		t.Fatalf("state = %s (%s)", done.State, done.Err)
	}
	if done.Results[ToolSB].CacheHit {
		t.Fatal("first audit claimed a cache hit")
	}

	repeat, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !repeat.State.Terminal() {
		t.Fatalf("repeat not served inline: %s", repeat.State)
	}
	res := repeat.Results[ToolSB]
	if !res.CacheHit || !res.Report.Cached {
		t.Fatalf("repeat result = %+v", res)
	}
	if res.Report.FakePct != done.Results[ToolSB].Report.FakePct {
		t.Fatal("cached verdict differs from the original analysis")
	}
}

// gatedTools wraps every factory of inner so that an audit of a screen name
// listed in gates announces itself on entered and parks until its gate
// closes — a job that holds a worker for as long as the test wants — while
// every other target goes to the real engine.
func gatedTools(inner map[string]auditd.Factory, gates map[string]chan struct{}, entered chan<- string) map[string]auditd.Factory {
	out := make(map[string]auditd.Factory, len(inner))
	for tool, factory := range inner {
		out[tool] = func(worker int) (core.Auditor, error) {
			engine, err := factory(worker)
			if err != nil {
				return nil, err
			}
			return gatedAuditor{Auditor: engine, gates: gates, entered: entered}, nil
		}
	}
	return out
}

type gatedAuditor struct {
	core.Auditor
	gates   map[string]chan struct{}
	entered chan<- string
}

func (g gatedAuditor) Audit(screenName string) (core.Report, error) {
	if gate, ok := g.gates[screenName]; ok {
		g.entered <- screenName
		<-gate
		return core.Report{Tool: g.Name()}, nil
	}
	return g.Auditor.Audit(screenName)
}

// TestVerdictIsAFunctionOfTheSpec: one (target, tools) spec has one verdict,
// whichever way the service comes to answer it — computed, coalesced onto
// the computation in flight, served from the cache, or recomputed after an
// invalidation on the pool's other worker. Engines fork their sampling
// stream per audit from (seed, tool, target); nothing about the worker, or
// about what it audited before, is in a report's verdict.
func TestVerdictIsAFunctionOfTheSpec(t *testing.T) {
	sim, err := NewSimulation(SimConfig{Only: []string{"davc", "janrezab"}, Seed: 91})
	if err != nil {
		t.Fatal(err)
	}
	gates := map[string]chan struct{}{}
	for _, name := range []string{"park-a", "park-b", "park-c", "park-d"} {
		gates[name] = make(chan struct{})
	}
	released := map[string]bool{}
	release := func(name string) {
		if !released[name] {
			released[name] = true
			close(gates[name])
		}
	}
	entered := make(chan string)
	svc, err := sim.NewAuditService(auditd.Config{
		Workers: 2,
		Tools:   gatedTools(sim.ToolFactories(), gates, entered),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for name := range gates {
			release(name) // a failed assertion must not leave Shutdown waiting on a parked job
		}
		_ = svc.Shutdown(context.Background())
	}()
	ctx := context.Background()
	// park occupies a worker with a one-tool job on a gated name and
	// returns once it is running, with the worker it landed on.
	park := func(name string) int {
		t.Helper()
		snap, err := svc.Submit(auditd.JobSpec{Target: name, Tools: []string{ToolSB}})
		if err != nil {
			t.Fatal(err)
		}
		<-entered
		running, err := svc.Get(snap.ID)
		if err != nil || running.State != auditd.StateRunning {
			t.Fatalf("parked job: %+v, %v", running, err)
		}
		return running.Worker
	}
	submit := func(spec auditd.JobSpec) auditd.JobSnapshot {
		t.Helper()
		snap, err := svc.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	await := func(id auditd.JobID) auditd.JobSnapshot {
		t.Helper()
		snap, err := svc.Await(ctx, id)
		if err != nil || snap.State != auditd.StateDone {
			t.Fatalf("job %s: %+v, %v", id, snap, err)
		}
		return snap
	}
	spec := auditd.JobSpec{Target: "janrezab"} // 10,800 followers: FC, TA and SP all draw a sample

	// Both workers parked: the spec queues, and its twin must coalesce.
	park("park-a")
	park("park-b")
	first := submit(spec)
	twin := submit(spec)
	if !twin.Deduped || twin.ID != first.ID {
		t.Fatalf("second submission did not coalesce onto the first: %+v vs %+v", twin, first)
	}
	// The pool also audits another target first, so the engines that come
	// to this spec later have a history the first computation's had not.
	other := submit(auditd.JobSpec{Target: "davc"})
	release("park-a")
	release("park-b")
	computed := await(first.ID)
	await(other.ID)

	cached := submit(spec)
	if !cached.State.Terminal() || !cached.Results[ToolFC].CacheHit {
		t.Fatalf("repeat was not served from the cache: %+v", cached)
	}

	// Recompute on the other worker: park the one that computed it. If the
	// first parked job lands on the other one, a second can only land on
	// the one wanted, and the first is let go.
	svc.Invalidate(spec.Target)
	if park("park-c") != computed.Worker {
		if park("park-d") != computed.Worker {
			t.Fatalf("two parked jobs and neither holds worker %d", computed.Worker)
		}
		release("park-c")
	}
	recomputed := await(submit(spec).ID)
	if recomputed.Worker == computed.Worker {
		t.Fatalf("recomputation ran on worker %d again", recomputed.Worker)
	}

	type verdict struct {
		inactive, fake, genuine float64
		sample                  int
	}
	of := func(snap auditd.JobSnapshot, tool string) verdict {
		r := snap.Results[tool].Report
		return verdict{r.InactivePct, r.FakePct, r.GenuinePct, r.SampleSize}
	}
	for _, tool := range ToolOrder {
		want := of(computed, tool)
		if want.sample == 0 {
			t.Fatalf("%s: empty verdict %+v", tool, want)
		}
		for how, snap := range map[string]auditd.JobSnapshot{"cached": cached, "recomputed": recomputed} {
			if got := of(snap, tool); got != want {
				t.Errorf("%s: %s verdict %+v, computed %+v", tool, how, got, want)
			}
		}
	}
}

package auditd

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"fakeproject/internal/core"
	"fakeproject/internal/twitter"
)

// stubAuditor is a deterministic engine with a configurable real-time cost,
// standing in for the latency-bound crawls of the real tools.
type stubAuditor struct {
	name  string
	delay time.Duration

	mu    sync.Mutex
	calls map[string]int
}

func newStub(name string, delay time.Duration) *stubAuditor {
	return &stubAuditor{name: name, delay: delay, calls: make(map[string]int)}
}

func (a *stubAuditor) Name() string { return a.name }

func (a *stubAuditor) Audit(target string) (core.Report, error) {
	if a.delay > 0 {
		time.Sleep(a.delay)
	}
	a.mu.Lock()
	a.calls[target]++
	a.mu.Unlock()
	if strings.HasPrefix(target, "missing") {
		return core.Report{}, fmt.Errorf("user %q not found", target)
	}
	return core.Report{
		Tool:       a.name,
		Target:     twitter.Profile{User: twitter.User{ScreenName: target}},
		GenuinePct: 100,
		Elapsed:    a.delay,
	}, nil
}

func (a *stubAuditor) totalCalls() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	total := 0
	for _, n := range a.calls {
		total += n
	}
	return total
}

// stubService builds a service whose tools all share the given stub
// auditors (engines are stateless here, so sharing across workers is fine).
func stubService(t *testing.T, cfg Config, stubs ...*stubAuditor) *Service {
	t.Helper()
	if cfg.Tools == nil {
		cfg.Tools = make(map[string]Factory, len(stubs))
		for _, stub := range stubs {
			stub := stub
			cfg.Tools[stub.name] = func(worker int) (core.Auditor, error) { return stub, nil }
		}
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	})
	return svc
}

func TestSubmitAwaitAllTools(t *testing.T) {
	alpha, beta := newStub("alpha", 0), newStub("beta", 0)
	svc := stubService(t, Config{Workers: 2, ToolOrder: []string{"alpha", "beta"}}, alpha, beta)

	snap, err := svc.Submit(JobSpec{Target: "davc"})
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Spec.Tools; len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("empty tool list should expand to all tools, got %v", got)
	}
	done, err := svc.Await(context.Background(), snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateDone {
		t.Fatalf("state = %s (%s)", done.State, done.Err)
	}
	for _, tool := range []string{"alpha", "beta"} {
		res, ok := done.Results[tool]
		if !ok || res.Err != "" || res.CacheHit {
			t.Fatalf("%s result = %+v", tool, res)
		}
		if res.Report.GenuinePct != 100 {
			t.Fatalf("%s verdict = %+v", tool, res.Report)
		}
	}
	if done.Elapsed() < 0 {
		t.Fatal("negative elapsed")
	}
}

func TestSubmitValidation(t *testing.T) {
	svc := stubService(t, Config{Workers: 1}, newStub("alpha", 0))
	if _, err := svc.Submit(JobSpec{Target: "  "}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("empty target: %v", err)
	}
	if _, err := svc.Submit(JobSpec{Target: "x", Tools: []string{"nosuch"}}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("unknown tool: %v", err)
	}
	if _, err := svc.Get(JobID("j99999999")); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown job: %v", err)
	}
}

func TestToolFailureMarksJobFailed(t *testing.T) {
	svc := stubService(t, Config{Workers: 1}, newStub("alpha", 0))
	snap, err := svc.Submit(JobSpec{Target: "missing_user"})
	if err != nil {
		t.Fatal(err)
	}
	done, err := svc.Await(context.Background(), snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateFailed {
		t.Fatalf("state = %s", done.State)
	}
	if res := done.Results["alpha"]; !strings.Contains(res.Err, "not found") {
		t.Fatalf("result = %+v", res)
	}
	// Failures must not be cached: a retry re-runs the analysis.
	if hits, _ := svc.Cache().Stats(); hits != 0 {
		t.Fatalf("cache hits after failure = %d", hits)
	}
}

// TestCacheFastPath is the Table II "cached" behaviour: the first audit runs
// the engine, every repeat completes inline from the result cache in
// microseconds-to-sub-millisecond real time without touching the queue.
func TestCacheFastPath(t *testing.T) {
	alpha := newStub("alpha", 20*time.Millisecond)
	svc := stubService(t, Config{Workers: 1}, alpha)

	first, err := svc.Submit(JobSpec{Target: "davc"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Await(context.Background(), first.ID); err != nil {
		t.Fatal(err)
	}

	const repeats = 200
	start := time.Now()
	for i := 0; i < repeats; i++ {
		snap, err := svc.Submit(JobSpec{Target: "davc"})
		if err != nil {
			t.Fatal(err)
		}
		if snap.State != StateDone {
			t.Fatalf("repeat %d not served inline: %s", i, snap.State)
		}
		res := snap.Results["alpha"]
		if !res.CacheHit || !res.Report.Cached {
			t.Fatalf("repeat %d not a cache hit: %+v", i, res)
		}
		if res.Report.Elapsed != 0 || res.Report.APICalls != 0 {
			t.Fatalf("cached report should cost nothing: %+v", res.Report)
		}
	}
	perRepeat := time.Since(start) / repeats
	// O(µs) target; allow generous slack for noisy CI boxes.
	if perRepeat > 2*time.Millisecond {
		t.Fatalf("cached repeat took %v each, want microseconds", perRepeat)
	}
	if alpha.totalCalls() != 1 {
		t.Fatalf("engine ran %d times, want 1", alpha.totalCalls())
	}
	st := svc.Stats()
	if st.InlineCache != repeats {
		t.Fatalf("inline cache serves = %d, want %d", st.InlineCache, repeats)
	}
}

func TestCacheTTLExpiry(t *testing.T) {
	alpha := newStub("alpha", 0)
	svc := stubService(t, Config{Workers: 1, CacheTTL: time.Nanosecond}, alpha)
	snap, _ := svc.Submit(JobSpec{Target: "davc"})
	if _, err := svc.Await(context.Background(), snap.ID); err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Millisecond)
	again, err := svc.Submit(JobSpec{Target: "davc"})
	if err != nil {
		t.Fatal(err)
	}
	done, err := svc.Await(context.Background(), again.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Results["alpha"].CacheHit {
		t.Fatal("expired entry served from cache")
	}
	if alpha.totalCalls() != 2 {
		t.Fatalf("engine ran %d times, want 2", alpha.totalCalls())
	}
}

func TestDisabledCache(t *testing.T) {
	alpha := newStub("alpha", 0)
	svc := stubService(t, Config{Workers: 1, CacheTTL: -1}, alpha)
	if svc.Cache() != nil {
		t.Fatal("cache should be disabled")
	}
	for i := 0; i < 2; i++ {
		snap, err := svc.Submit(JobSpec{Target: "davc"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Await(context.Background(), snap.ID); err != nil {
			t.Fatal(err)
		}
	}
	if alpha.totalCalls() != 2 {
		t.Fatalf("engine ran %d times, want 2", alpha.totalCalls())
	}
}

// TestDedupCoalescing: identical requests while one is queued or running
// coalesce onto a single job and a single analysis.
func TestDedupCoalescing(t *testing.T) {
	alpha := newStub("alpha", 30*time.Millisecond)
	svc := stubService(t, Config{Workers: 1}, alpha)

	first, err := svc.Submit(JobSpec{Target: "davc"})
	if err != nil {
		t.Fatal(err)
	}
	var dupID JobID
	for i := 0; i < 5; i++ {
		dup, err := svc.Submit(JobSpec{Target: "davc"})
		if err != nil {
			t.Fatal(err)
		}
		if dup.State.Terminal() {
			break // raced past completion; coalescing window closed
		}
		if dup.ID != first.ID || !dup.Deduped {
			t.Fatalf("duplicate got id %s (deduped=%v), want %s", dup.ID, dup.Deduped, first.ID)
		}
		dupID = dup.ID
	}
	if _, err := svc.Await(context.Background(), first.ID); err != nil {
		t.Fatal(err)
	}
	if dupID != "" && alpha.totalCalls() != 1 {
		t.Fatalf("engine ran %d times, want 1", alpha.totalCalls())
	}
	if st := svc.Stats(); dupID != "" && st.Deduped == 0 {
		t.Fatal("dedup counter not incremented")
	}
}

// TestSubmittedIDResolvesAtOnce: an ID Submit hands out — to the submitter
// whose job was enqueued or to one that coalesced onto it — is in the job
// table before anyone can see it, and names a job still queued or running,
// never one that already finished (a coalesced re-audit would replay the
// previous round's verdict). Identical specs against a zero-work stub with
// the cache off keep the dedup window and the workers as tight against
// Submit as they get; the rounds fit the retention bound so nothing is
// evicted.
func TestSubmittedIDResolvesAtOnce(t *testing.T) {
	const submitters, rounds = 8, retainJobs / 8
	svc := stubService(t, Config{Workers: 2, QueueCap: submitters, CacheTTL: -1}, newStub("alpha", 0))
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				snap, err := svc.Submit(JobSpec{Target: "davc", Tools: []string{"alpha"}})
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if snap.State.Terminal() {
					t.Errorf("submit coalesced onto finished job %s (%s)", snap.ID, snap.State)
					return
				}
				if _, err := svc.Get(snap.ID); err != nil {
					t.Errorf("get %s just after submit: %v", snap.ID, err)
					return
				}
				done, err := svc.Await(context.Background(), snap.ID)
				if err != nil || done.State != StateDone {
					t.Errorf("await %s: state %q, err %v", snap.ID, done.State, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestSingleflightAcrossJobs: two non-identical jobs needing the same
// (tool, target) analysis share one engine run through the in-flight map.
func TestSingleflightAcrossJobs(t *testing.T) {
	alpha := newStub("alpha", 40*time.Millisecond)
	beta := newStub("beta", 0)
	svc := stubService(t, Config{Workers: 2, ToolOrder: []string{"alpha", "beta"}}, alpha, beta)

	a, err := svc.Submit(JobSpec{Target: "davc", Tools: []string{"alpha"}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := svc.Submit(JobSpec{Target: "davc", Tools: []string{"alpha", "beta"}})
	if err != nil {
		t.Fatal(err)
	}
	if a.ID == b.ID {
		t.Fatal("different tool sets must not dedup onto one job")
	}
	for _, id := range []JobID{a.ID, b.ID} {
		done, err := svc.Await(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if done.State != StateDone {
			t.Fatalf("job %s: %s (%s)", id, done.State, done.Err)
		}
	}
	if calls := alpha.totalCalls(); calls != 1 {
		t.Fatalf("alpha ran %d times for one target, want 1 (singleflight)", calls)
	}
}

func TestPriorityOrdering(t *testing.T) {
	unblock := make(chan struct{})
	gated := &gatedAuditor{inner: newStub("alpha", 0), gate: unblock, blockTarget: "gate"}
	svc := stubService(t, Config{
		Workers: 1,
		Tools:   map[string]Factory{"alpha": func(int) (core.Auditor, error) { return gated, nil }},
	})

	// Occupy the single worker until both submissions are queued; the gate
	// outranks them, so a worker slow to its first pop still takes it first.
	gate, err := svc.Submit(JobSpec{Target: "gate", Priority: 10})
	if err != nil {
		t.Fatal(err)
	}
	low, err := svc.Submit(JobSpec{Target: "low", Priority: 1})
	if err != nil {
		t.Fatal(err)
	}
	high, err := svc.Submit(JobSpec{Target: "high", Priority: 9})
	if err != nil {
		t.Fatal(err)
	}
	close(unblock)
	for _, id := range []JobID{gate.ID, low.ID, high.ID} {
		if _, err := svc.Await(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	lowDone, _ := svc.Get(low.ID)
	highDone, _ := svc.Get(high.ID)
	if highDone.Started.After(lowDone.Started) {
		t.Fatalf("high-priority job ran after low: high %v low %v",
			highDone.Started, lowDone.Started)
	}
}

func TestBackpressure(t *testing.T) {
	alpha := newStub("alpha", 50*time.Millisecond)
	svc := stubService(t, Config{Workers: 1, QueueCap: 2}, alpha)

	// Keep submitting distinct targets until the bounded queue pushes
	// back: with one slow worker and capacity 2, at most a handful are
	// accepted before ErrQueueFull.
	var (
		ids     []JobID
		sawFull bool
	)
	for i := 0; i < 8; i++ {
		snap, err := svc.Submit(JobSpec{Target: fmt.Sprintf("t%d", i)})
		if errors.Is(err, ErrQueueFull) {
			sawFull = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, snap.ID)
	}
	if !sawFull {
		t.Fatal("queue never pushed back")
	}
	if st := svc.Stats(); st.Rejected == 0 {
		t.Fatal("rejected counter not incremented")
	}
	for _, id := range ids {
		if _, err := svc.Await(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCancelQueuedJob(t *testing.T) {
	alpha := newStub("alpha", 50*time.Millisecond)
	svc := stubService(t, Config{Workers: 1}, alpha)
	if _, err := svc.Submit(JobSpec{Target: "running"}); err != nil {
		t.Fatal(err)
	}
	queued, err := svc.Submit(JobSpec{Target: "queued"})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	done, err := svc.Await(context.Background(), queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateCanceled {
		t.Fatalf("state = %s", done.State)
	}
	if alpha.calls["queued"] != 0 {
		t.Fatal("canceled job still ran")
	}
}

func TestShutdownDrainsQueue(t *testing.T) {
	alpha := newStub("alpha", 5*time.Millisecond)
	svc, err := New(Config{
		Workers: 2,
		Tools:   map[string]Factory{"alpha": func(int) (core.Auditor, error) { return alpha, nil }},
	})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]JobID, 0, 8)
	for i := 0; i < 8; i++ {
		snap, err := svc.Submit(JobSpec{Target: fmt.Sprintf("t%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, snap.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		snap, err := svc.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if !snap.State.Terminal() {
			t.Fatalf("job %s left in state %s after drain", id, snap.State)
		}
	}
	if _, err := svc.Submit(JobSpec{Target: "late"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after shutdown: %v", err)
	}
}

// TestForcedShutdownFinalisesQueuedJobs: when the drain deadline expires
// with jobs still queued, those jobs must reach a terminal state so every
// waiter unblocks instead of hanging on work that will never run.
func TestForcedShutdownFinalisesQueuedJobs(t *testing.T) {
	alpha := newStub("alpha", 300*time.Millisecond)
	svc, err := New(Config{
		Workers: 1,
		Tools:   map[string]Factory{"alpha": func(int) (core.Auditor, error) { return alpha, nil }},
	})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]JobID, 0, 4)
	for i := 0; i < 4; i++ {
		snap, err := svc.Submit(JobSpec{Target: fmt.Sprintf("t%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, snap.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := svc.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced shutdown err = %v", err)
	}
	for _, id := range ids {
		awaitCtx, awaitCancel := context.WithTimeout(context.Background(), 2*time.Second)
		snap, err := svc.Await(awaitCtx, id)
		awaitCancel()
		if err != nil {
			t.Fatalf("await %s after forced shutdown: %v", id, err)
		}
		if !snap.State.Terminal() {
			t.Fatalf("job %s left non-terminal: %s", id, snap.State)
		}
	}
}

// TestCancelReleasesDedup: a fresh submission after Cancel must not
// coalesce onto the canceled job.
func TestCancelReleasesDedup(t *testing.T) {
	alpha := newStub("alpha", 50*time.Millisecond)
	svc := stubService(t, Config{Workers: 1}, alpha)
	if _, err := svc.Submit(JobSpec{Target: "running"}); err != nil {
		t.Fatal(err)
	}
	queued, err := svc.Submit(JobSpec{Target: "victim"})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	fresh, err := svc.Submit(JobSpec{Target: "victim"})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID == queued.ID {
		t.Fatal("fresh submission coalesced onto the canceled job")
	}
	done, err := svc.Await(context.Background(), fresh.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateDone {
		t.Fatalf("fresh job state = %s", done.State)
	}
}

func TestAwaitContextCancellation(t *testing.T) {
	alpha := newStub("alpha", 200*time.Millisecond)
	svc := stubService(t, Config{Workers: 1}, alpha)
	snap, err := svc.Submit(JobSpec{Target: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := svc.Await(ctx, snap.ID); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("await err = %v", err)
	}
	if _, err := svc.Await(context.Background(), snap.ID); err != nil {
		t.Fatal(err)
	}
}

func TestJobRetentionEviction(t *testing.T) {
	alpha := newStub("alpha", 0)
	svc := stubService(t, Config{Workers: 1, CacheTTL: -1}, alpha)
	var first, last JobID
	for i := 0; i < retainJobs+8; i++ {
		snap, err := svc.Submit(JobSpec{Target: fmt.Sprintf("t%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Await(context.Background(), snap.ID); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = snap.ID
		}
		last = snap.ID
	}
	if _, err := svc.Get(first); err == nil {
		t.Fatal("oldest job survived past the retention bound")
	}
	if got := len(svc.List()); got > retainJobs+1 { // retention bound plus one in flight
		t.Fatalf("retained %d jobs, want <= %d", got, retainJobs+1)
	}
	if _, err := svc.Get(last); err != nil {
		t.Fatal("most recent job evicted")
	}
}

// TestThroughputScaling is the headline concurrency property: N latency-
// bound audits through the worker pool complete ≥4× faster than the serial
// loop. The stub engines sleep on the real clock, modelling the
// crawl-bound workloads the service fronts, so the speedup holds on any
// box regardless of core count.
func TestThroughputScaling(t *testing.T) {
	const (
		targets = 16
		delay   = 10 * time.Millisecond
	)
	serialStub := newStub("alpha", delay)
	serialStart := time.Now()
	for i := 0; i < targets; i++ {
		if _, err := serialStub.Audit(fmt.Sprintf("t%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	serial := time.Since(serialStart)

	poolStub := newStub("alpha", delay)
	svc := stubService(t, Config{Workers: 8, QueueCap: targets + 4}, poolStub)
	poolStart := time.Now()
	ids := make([]JobID, 0, targets)
	for i := 0; i < targets; i++ {
		snap, err := svc.Submit(JobSpec{Target: fmt.Sprintf("t%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, snap.ID)
	}
	for _, id := range ids {
		done, err := svc.Await(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if done.State != StateDone {
			t.Fatalf("job %s: %s", id, done.State)
		}
	}
	concurrent := time.Since(poolStart)

	if speedup := float64(serial) / float64(concurrent); speedup < 4 {
		t.Fatalf("speedup = %.1fx (serial %v vs pooled %v), want >= 4x",
			speedup, serial, concurrent)
	}
}

// TestInvalidateForcesFreshAnalysis: dropping a cached result makes the next
// submission run the engine again instead of answering inline.
func TestInvalidateForcesFreshAnalysis(t *testing.T) {
	stub := newStub("alpha", 0)
	svc := stubService(t, Config{Workers: 1}, stub)

	first, err := svc.Submit(JobSpec{Target: "davc"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Await(context.Background(), first.ID); err != nil {
		t.Fatal(err)
	}
	repeat, err := svc.Submit(JobSpec{Target: "davc"})
	if err != nil {
		t.Fatal(err)
	}
	if repeat.State != StateDone {
		t.Fatalf("repeat state = %s, want inline cache serve", repeat.State)
	}
	if stub.totalCalls() != 1 {
		t.Fatalf("engine ran %d times before invalidation, want 1", stub.totalCalls())
	}

	svc.Invalidate("davc")
	fresh, err := svc.Submit(JobSpec{Target: "davc"})
	if err != nil {
		t.Fatal(err)
	}
	done, err := svc.Await(context.Background(), fresh.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Results["alpha"].CacheHit {
		t.Fatal("post-invalidation result still served from cache")
	}
	if stub.totalCalls() != 2 {
		t.Fatalf("engine ran %d times after invalidation, want 2", stub.totalCalls())
	}
}

// TestInvalidateSelectedTools only drops the named tools' entries.
func TestInvalidateSelectedTools(t *testing.T) {
	alpha, beta := newStub("alpha", 0), newStub("beta", 0)
	svc := stubService(t, Config{Workers: 1}, alpha, beta)

	first, err := svc.Submit(JobSpec{Target: "davc"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Await(context.Background(), first.ID); err != nil {
		t.Fatal(err)
	}
	svc.Invalidate("davc", "alpha")
	again, err := svc.Submit(JobSpec{Target: "davc"})
	if err != nil {
		t.Fatal(err)
	}
	done, err := svc.Await(context.Background(), again.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Results["alpha"].CacheHit {
		t.Fatal("invalidated tool served from cache")
	}
	if !done.Results["beta"].CacheHit {
		t.Fatal("untouched tool missed the cache")
	}
}

// gatedAuditor blocks audits of one target until its gate opens, pinning
// the single worker deterministically while a test stages the queue.
type gatedAuditor struct {
	inner       core.Auditor
	gate        chan struct{}
	blockTarget string
}

func (g *gatedAuditor) Name() string { return g.inner.Name() }

func (g *gatedAuditor) Audit(target string) (core.Report, error) {
	if target == g.blockTarget {
		<-g.gate
	}
	return g.inner.Audit(target)
}

// TestRunSeqReflectsPriorityOrder: with one worker pinned on a gated job,
// a later high-priority submission must start before earlier queued
// low-priority ones — and RunSeq records exactly that execution order.
func TestRunSeqReflectsPriorityOrder(t *testing.T) {
	gate := make(chan struct{})
	gated := &gatedAuditor{inner: newStub("alpha", 0), gate: gate, blockTarget: "head"}
	svc := stubService(t, Config{
		Workers:  1,
		CacheTTL: -1,
		Tools:    map[string]Factory{"alpha": func(int) (core.Auditor, error) { return gated, nil }},
	})

	head, err := svc.Submit(JobSpec{Target: "head"})
	if err != nil {
		t.Fatal(err)
	}
	background := make([]JobID, 0, 3)
	for i := 0; i < 3; i++ {
		snap, err := svc.Submit(JobSpec{Target: fmt.Sprintf("bg%d", i), Priority: -10})
		if err != nil {
			t.Fatal(err)
		}
		background = append(background, snap.ID)
	}
	urgent, err := svc.Submit(JobSpec{Target: "urgent", Priority: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Everything below the head job is queued; release the worker.
	close(gate)

	if _, err := svc.Await(context.Background(), head.ID); err != nil {
		t.Fatal(err)
	}
	urgentDone, err := svc.Await(context.Background(), urgent.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range background {
		bgDone, err := svc.Await(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if bgDone.RunSeq <= urgentDone.RunSeq {
			t.Fatalf("background job %s ran at seq %d, before urgent seq %d",
				id, bgDone.RunSeq, urgentDone.RunSeq)
		}
	}
}

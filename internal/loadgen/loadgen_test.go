package loadgen

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"fakeproject/internal/auditd"
	"fakeproject/internal/platform"
	"fakeproject/internal/population"
	"fakeproject/internal/simclock"
	"fakeproject/internal/twitter"
	"fakeproject/internal/twitterapi"
)

// stubMix issues in-memory ops so the runner can be tested without a
// platform.
type stubMix struct {
	name    string
	mu      sync.Mutex
	started int
	delay   time.Duration
	err     error
}

func (m *stubMix) Name() string { return m.name }
func (m *stubMix) Next(i int) Op {
	return Op{Endpoint: "stub", Do: func(ctx context.Context) error {
		m.mu.Lock()
		m.started++
		m.mu.Unlock()
		if m.delay > 0 {
			time.Sleep(m.delay)
		}
		return m.err
	}}
}

func TestRunExecutesSchedule(t *testing.T) {
	mix := &stubMix{name: "stub"}
	res := Run(context.Background(), mix, Pattern{Rate: 2000}, 100*time.Millisecond, 64)
	if res.Mix != "stub" {
		t.Fatalf("mix name = %q", res.Mix)
	}
	if res.Offered != 200 {
		t.Fatalf("offered = %d, want 200", res.Offered)
	}
	if got := res.TotalCount(); got+uint64(res.Shed) != 200 {
		t.Fatalf("completed %d + shed %d != offered 200", got, res.Shed)
	}
	if res.TotalErrors() != 0 {
		t.Fatalf("errors = %d", res.TotalErrors())
	}
}

// TestRunShedsInsteadOfQueueing pins the open-loop discipline: when every
// in-flight slot is stuck, later arrivals are shed and reported, never
// silently queued behind the stall.
func TestRunShedsInsteadOfQueueing(t *testing.T) {
	mix := &stubMix{name: "slow", delay: 300 * time.Millisecond}
	res := Run(context.Background(), mix, Pattern{Rate: 1000}, 100*time.Millisecond, 4)
	if res.Shed == 0 {
		t.Fatal("no arrivals shed with 4 slots stuck for the whole run")
	}
	if res.TotalCount() != 4 {
		t.Fatalf("completed = %d, want exactly the 4 in-flight slots", res.TotalCount())
	}
	if res.TotalCount()+uint64(res.Shed) != uint64(res.Offered) {
		t.Fatalf("completed %d + shed %d != offered %d", res.TotalCount(), res.Shed, res.Offered)
	}
}

func TestRunClassifiesErrors(t *testing.T) {
	throttled := Run(context.Background(),
		&stubMix{name: "t", err: fmt.Errorf("wrapped: %w", ErrThrottled)},
		Pattern{Rate: 500}, 50*time.Millisecond, 64)
	for _, e := range throttled.Endpoints {
		if e.Errors != 0 || e.Throttled == 0 {
			t.Fatalf("429s misclassified: %+v", e)
		}
	}
	failed := Run(context.Background(),
		&stubMix{name: "f", err: errors.New("boom")},
		Pattern{Rate: 500}, 50*time.Millisecond, 64)
	if failed.TotalErrors() == 0 {
		t.Fatal("hard failures not counted")
	}
	for _, e := range failed.Endpoints {
		if len(e.ErrorSamples) == 0 || !strings.Contains(e.ErrorSamples[0], "boom") {
			t.Fatalf("error samples lost: %+v", e.ErrorSamples)
		}
	}
}

// deployment is the platform the mix tests drive, assembled through
// platform.Spec the way the daemons assemble theirs: an API node over a
// store the test populates itself (so it can churn it), and an auditd
// whose engines read that store in process. Ring tests add two
// range-loading members behind a router (bootRing, multinode_test.go).
type deployment struct {
	store *twitter.Store
	gen   *population.Generator
	hot   twitter.UserID // load_t0, the largest target: what churn hits
	names []string       // target screen names, largest first

	api, audit string // base URLs
}

// The shared deployment: building the population dominates the cost, so
// every test runs over the same one.
var (
	deployOnce sync.Once
	deployed   *deployment
	deployErr  error
)

func sharedDeployment(t *testing.T) *deployment {
	t.Helper()
	deployOnce.Do(func() { deployed, deployErr = deploy() })
	if deployErr != nil {
		t.Fatalf("assembling deployment: %v", deployErr)
	}
	return deployed
}

// listen binds p and returns its base URL.
func listen(p *platform.Process) (string, error) {
	addr, err := p.Start()
	return "http://" + addr, err
}

// deploy builds a heavy-tailed target family — target k carries
// 6000/(k+1) followers, with a healthy share of fakes so purge sweeps have
// victims — and starts the API node and auditd on loopback ports.
func deploy() (*deployment, error) {
	const seed = 7
	clock := simclock.Real{}
	api, err := platform.New(platform.Spec{Addr: "127.0.0.1:0", Seed: seed, NoLimits: true})
	if err != nil {
		return nil, err
	}
	store, err := api.OpenStore(clock)
	if err != nil {
		return nil, err
	}
	d := &deployment{store: store, gen: population.NewGenerator(store, seed)}
	layout := population.Layout{{Width: 0, Mix: population.FromPercentages(25, 15, 60)}}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("load_t%d", i)
		id, err := d.gen.BuildTarget(population.TargetSpec{
			ScreenName: name,
			Followers:  6000 / (i + 1),
			Layout:     layout,
			Statuses:   250,
			FollowSpan: 2 * 365 * 24 * time.Hour,
		})
		if err != nil {
			return nil, fmt.Errorf("building target %s: %w", name, err)
		}
		if i == 0 {
			d.hot = id
		}
		d.names = append(d.names, name)
	}
	apiSvc := api.ServeAPI(store, clock)
	if d.api, err = listen(api); err != nil {
		return nil, err
	}

	// Engines crawl the store through in-process clients with a wide token
	// pool: the surface under load is auditd's HTTP plane, not Table I
	// sleeps.
	newClient := func(tool string, worker int) twitterapi.Client {
		return twitterapi.NewDirectClient(apiSvc, clock, twitterapi.ClientConfig{
			Tokens: 1000,
			Seed:   seed + uint64(worker)*31,
		})
	}
	factories := auditd.StandardFactories(newClient, auditd.ToolSetConfig{Clock: clock, Seed: seed})
	order := []string{auditd.ToolTA, auditd.ToolSP, auditd.ToolSB}
	tools := map[string]auditd.Factory{}
	for _, tool := range order {
		tools[tool] = factories[tool]
	}
	svc, err := auditd.New(auditd.Config{
		Workers:   2,
		QueueCap:  64,
		CacheTTL:  time.Minute,
		Clock:     clock,
		Tools:     tools,
		ToolOrder: order,
	})
	if err != nil {
		return nil, err
	}
	audit, err := platform.New(platform.Spec{Addr: "127.0.0.1:0"})
	if err != nil {
		return nil, err
	}
	audit.OnStop(svc.Shutdown)
	audit.Mux.Handle("/", auditd.NewHandler(svc))
	if d.audit, err = listen(audit); err != nil {
		return nil, err
	}
	return d, nil
}

// harness fronts api (the node or a ring's router) and audit with a remote
// harness over every target, the path cmd/loadd takes.
func (d *deployment) harness(t *testing.T, api, audit string) *Harness {
	t.Helper()
	h, err := NewRemote(api, audit, d.names)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	return h
}

// churn starts a population.Driver goroutine on the hottest target that
// alternates purchase bursts and purge sweeps every interval — the storm
// the crawl mixes race. The returned stop ends it and reports the
// followers it added and removed.
func (d *deployment) churn(interval time.Duration, burst int, purgeFraction float64) (stop func() (added, removed int, err error)) {
	driver := population.NewDriver(d.gen, d.hot, population.ChurnScript{})
	quit := make(chan struct{})
	type outcome struct {
		added, removed int
		err            error
	}
	done := make(chan outcome, 1)
	go func() {
		var o outcome
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for step := 0; o.err == nil; step++ {
			select {
			case <-quit:
				done <- o
				return
			case <-ticker.C:
			}
			if step%2 == 0 {
				if o.err = d.gen.BuyFollowers(d.hot, burst); o.err == nil {
					o.added += burst
				}
			} else {
				var n int
				n, o.err = driver.PurgeFakes(purgeFraction)
				o.removed += n
			}
		}
		done <- o
	}()
	return func() (int, int, error) {
		close(quit)
		o := <-done
		return o.added, o.removed, o.err
	}
}

// TestAllMixesCleanUnderChurn is the acceptance gate: every standard mix
// runs against the deployment over HTTP — with churn racing the reads on
// the crawl-heavy and churn-storm runs, and multinode through a fresh
// ring — and completes with zero unexpected (non-429) errors.
func TestAllMixesCleanUnderChurn(t *testing.T) {
	d := sharedDeployment(t)
	for _, name := range MixNames() {
		t.Run(name, func(t *testing.T) {
			api := d.api
			if name == MixMultiNode {
				api = d.bootRing(t).base
			}
			h := d.harness(t, api, d.audit)
			var stopChurn func() (int, int, error)
			switch name {
			case MixCrawlHeavy:
				stopChurn = d.churn(60*time.Millisecond, 150, 0.05)
			case MixChurnStorm:
				stopChurn = d.churn(25*time.Millisecond, 400, 0.25)
			}
			res, err := h.RunMix(context.Background(), name,
				Pattern{Rate: 300, BurstRate: 900, BurstEvery: 200 * time.Millisecond, BurstLen: 50 * time.Millisecond},
				400*time.Millisecond, 128)
			if stopChurn != nil {
				added, removed, churnErr := stopChurn()
				if churnErr != nil {
					t.Fatalf("background churn: %v", churnErr)
				}
				if added == 0 && removed == 0 {
					t.Error("churn mix ran without any platform churn being applied")
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			if res.TotalCount() == 0 {
				t.Fatal("mix completed zero requests")
			}
			if res.Offered <= 0 {
				t.Errorf("offered = %d arrivals", res.Offered)
			}
			for _, e := range res.Endpoints {
				if e.Errors > 0 {
					t.Errorf("%s: %d unexpected errors (samples: %v)", e.Endpoint, e.Errors, e.ErrorSamples)
				}
				if e.Count > 0 && e.P50 <= 0 {
					t.Errorf("%s: p50 = %v with %d samples", e.Endpoint, e.P50, e.Count)
				}
				if e.P99 < e.P50 {
					t.Errorf("%s: p99 %v < p50 %v", e.Endpoint, e.P99, e.P50)
				}
			}
		})
	}
}

// TestRemoteHarnessResolvesTargets pins what NewRemote learns over the
// API and which mixes it can run without an audit service.
func TestRemoteHarnessResolvesTargets(t *testing.T) {
	d := sharedDeployment(t)
	remote, err := NewRemote(d.api, "", d.names[:1])
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	if got := remote.Targets[0].ID; got != int64(d.hot) {
		t.Fatalf("resolved id %d, want %d", got, d.hot)
	}
	if len(remote.accounts) < 2 {
		t.Fatalf("probe pool holds %d ids; want the target plus its first follower page", len(remote.accounts))
	}
	// Every read mix runs; audit-heavy refuses without an audit service.
	for _, name := range []string{MixCelebrityHotspot, MixChurnStorm} {
		res, err := remote.RunMix(context.Background(), name, Pattern{Rate: 100}, 150*time.Millisecond, 32)
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalErrors() != 0 || res.TotalCount() == 0 {
			t.Fatalf("remote %s run: %d reqs, %d errors", name, res.TotalCount(), res.TotalErrors())
		}
	}
	if _, err := remote.RunMix(context.Background(), MixAuditHeavy, Pattern{Rate: 10}, 50*time.Millisecond, 8); err == nil {
		t.Fatal("audit-heavy must refuse without an audit service")
	}
}

package loadgen

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
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

// testHarness builds one small shared platform for the mix tests; building
// the population dominates the cost, so every mix runs over the same one.
var (
	harnessOnce sync.Once
	harness     *Harness
	harnessErr  error
)

func sharedHarness(t *testing.T) *Harness {
	t.Helper()
	harnessOnce.Do(func() {
		harness, harnessErr = NewLocal(Config{
			Seed:         7,
			Targets:      3,
			Followers:    6000,
			Statuses:     250,
			AuditWorkers: 2,
			AuditQueue:   64,
		})
	})
	if harnessErr != nil {
		t.Fatalf("building harness: %v", harnessErr)
	}
	return harness
}

// TestAllMixesCleanUnderChurn is the acceptance gate: every standard mix
// runs against the in-process HTTP plane — with background churn racing
// the reads where the mix calls for it — and completes with zero
// unexpected (non-429) errors.
func TestAllMixesCleanUnderChurn(t *testing.T) {
	h := sharedHarness(t)
	for _, name := range MixNames() {
		t.Run(name, func(t *testing.T) {
			res, err := h.RunMix(context.Background(), name,
				Pattern{Rate: 300, BurstRate: 900, BurstEvery: 200 * time.Millisecond, BurstLen: 50 * time.Millisecond},
				400*time.Millisecond, 128)
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
			switch name {
			case MixCrawlHeavy, MixChurnStorm:
				if res.ChurnAdded == 0 && res.ChurnRemoved == 0 {
					t.Error("churn mix ran without any platform churn being applied")
				}
			}
		})
	}
}

// TestRemoteHarnessResolvesTargets drives NewRemote against the local
// harness's own API server, the same path an external -api run takes.
func TestRemoteHarnessResolvesTargets(t *testing.T) {
	local := sharedHarness(t)
	remote, err := NewRemote(local.APIBase, "", []string{local.Targets[0].Name})
	if err != nil {
		t.Fatal(err)
	}
	if remote.Targets[0].ID != local.Targets[0].ID {
		t.Fatalf("resolved id %d, want %d", remote.Targets[0].ID, local.Targets[0].ID)
	}
	// Read-only mixes work; platform-mutating and audit mixes refuse.
	res, err := remote.RunMix(context.Background(), MixCelebrityHotspot,
		Pattern{Rate: 100}, 150*time.Millisecond, 32)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalErrors() != 0 || res.TotalCount() == 0 {
		t.Fatalf("remote hotspot run: %d reqs, %d errors", res.TotalCount(), res.TotalErrors())
	}
	if _, err := remote.RunMix(context.Background(), MixChurnStorm, Pattern{Rate: 10}, 50*time.Millisecond, 8); err == nil {
		t.Fatal("churn-storm must refuse to run against a remote platform")
	}
	if _, err := remote.RunMix(context.Background(), MixAuditHeavy, Pattern{Rate: 10}, 50*time.Millisecond, 8); err == nil {
		t.Fatal("audit-heavy must refuse without an audit service")
	}
}

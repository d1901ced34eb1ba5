package auditd

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fakeproject/internal/core"
	"fakeproject/internal/simclock"
)

// announcingAuditor blocks inside Audit until released, signalling entry, so
// a test knows the single worker is pinned before it stages the queue.
type announcingAuditor struct {
	inner   core.Auditor
	started chan string
	release chan struct{}
}

func (a *announcingAuditor) Name() string { return a.inner.Name() }

func (a *announcingAuditor) Audit(target string) (core.Report, error) {
	a.started <- target
	<-a.release
	return a.inner.Audit(target)
}

// probeHealthz hits GET /healthz on a fresh handler and returns the status
// code and decoded body.
func probeHealthz(t *testing.T, svc *Service) (int, Health) {
	t.Helper()
	rec := httptest.NewRecorder()
	NewHandler(svc).ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	var h Health
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatalf("decoding /healthz body %q: %v", rec.Body.String(), err)
	}
	return rec.Code, h
}

// TestHealthQueueAtCapacity: a full queue means submissions are bouncing, so
// /healthz must flip to 503/degraded — and recover once the queue drains.
func TestHealthQueueAtCapacity(t *testing.T) {
	gate := &announcingAuditor{
		inner:   newStub("alpha", 0),
		started: make(chan string, 8),
		release: make(chan struct{}),
	}
	svc := stubService(t, Config{
		Workers:  1,
		QueueCap: 2,
		CacheTTL: -1,
		Tools:    map[string]Factory{"alpha": func(int) (core.Auditor, error) { return gate, nil }},
	})

	if code, h := probeHealthz(t, svc); code != 200 || h.Status != "ok" {
		t.Fatalf("idle service: healthz = %d %+v", code, h)
	}

	head, err := svc.Submit(JobSpec{Target: "head"})
	if err != nil {
		t.Fatal(err)
	}
	<-gate.started // the worker is now pinned on "head"
	var queued []JobID
	for _, target := range []string{"q0", "q1"} {
		snap, err := svc.Submit(JobSpec{Target: target})
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, snap.ID)
	}

	code, h := probeHealthz(t, svc)
	if code != 503 || h.Status != "degraded" {
		t.Fatalf("full queue: healthz = %d %+v", code, h)
	}
	if !strings.Contains(h.Detail, "at capacity") {
		t.Fatalf("degraded detail %q does not name the cause", h.Detail)
	}
	if h.QueueDepth != 2 || h.QueueCap != 2 {
		t.Fatalf("depth/cap = %d/%d, want 2/2", h.QueueDepth, h.QueueCap)
	}

	close(gate.release)
	for range queued {
		<-gate.started // drain the announcements of the queued jobs
	}
	for _, id := range append([]JobID{head.ID}, queued...) {
		if _, err := svc.Await(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	if code, h := probeHealthz(t, svc); code != 200 || h.Status != "ok" {
		t.Fatalf("drained service: healthz = %d %+v", code, h)
	}
}

// TestHealthStalledWorkers: jobs queued with no pool progress for longer
// than stallAfter is a stall, not a backlog — degraded with the idle time in
// the detail. Virtual clock, so "no progress for 10 minutes" takes no time.
func TestHealthStalledWorkers(t *testing.T) {
	vc := simclock.NewVirtualAtEpoch()
	gate := &announcingAuditor{
		inner:   newStub("alpha", 0),
		started: make(chan string, 8),
		release: make(chan struct{}),
	}
	svc := stubService(t, Config{
		Workers:  1,
		CacheTTL: -1,
		Clock:    vc,
		Tools:    map[string]Factory{"alpha": func(int) (core.Auditor, error) { return gate, nil }},
	})

	head, err := svc.Submit(JobSpec{Target: "head"})
	if err != nil {
		t.Fatal(err)
	}
	<-gate.started
	queued, err := svc.Submit(JobSpec{Target: "queued"})
	if err != nil {
		t.Fatal(err)
	}

	// A short lull is a backlog, not a stall.
	vc.Advance(stallAfter / 2)
	if h := svc.Health(); h.Status != "ok" {
		t.Fatalf("%v backlog reported %+v", stallAfter/2, h)
	}

	vc.Advance(10 * time.Minute)
	code, h := probeHealthz(t, svc)
	if code != 503 || h.Status != "degraded" {
		t.Fatalf("stalled pool: healthz = %d %+v", code, h)
	}
	if !strings.Contains(h.Detail, "stalled") {
		t.Fatalf("degraded detail %q does not name the cause", h.Detail)
	}

	close(gate.release)
	<-gate.started // the queued job reaches the worker
	for _, id := range []JobID{head.ID, queued.ID} {
		if _, err := svc.Await(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	// An empty queue is healthy no matter how long the pool has been idle.
	vc.Advance(24 * time.Hour)
	if code, h := probeHealthz(t, svc); code != 200 || h.Status != "ok" {
		t.Fatalf("idle-but-empty service: healthz = %d %+v", code, h)
	}
}

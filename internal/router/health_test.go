package router

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"fakeproject/internal/metrics"
)

// flakyBackend serves fastPage-style answers when up and 500s everything
// (the health probe included) when down.
type flakyBackend struct {
	down atomic.Bool
}

func (f *flakyBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.down.Load() {
		http.Error(w, "boom", http.StatusInternalServerError)
		return
	}
	if r.URL.Path == "/healthz" {
		_, _ = io.WriteString(w, "ok\n")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = io.WriteString(w, fastPage)
}

func TestEjectionFailoverReadmission(t *testing.T) {
	flaky := &flakyBackend{}
	flaky.down.Store(true)
	primary := httptest.NewServer(flaky)
	defer primary.Close()
	good := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, fastPage)
	}))
	defer good.Close()

	rt, err := New(Config{
		Backends:      []string{primary.URL, good.URL},
		Registry:      metrics.NewRegistry(),
		ProbeInterval: -1, // probes driven by hand below
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.noHedge = true // isolate the failover path
	front := httptest.NewServer(rt)
	defer front.Close()

	// Every request while the primary 500s must still answer 200 off the
	// replica — the client never sees the failure.
	get := func() {
		t.Helper()
		resp, err := front.Client().Get(front.URL + "/1.1/followers/ids.json?user_id=1&cursor=-1")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || string(body) != fastPage {
			t.Fatalf("client saw the failure: HTTP %d %q", resp.StatusCode, body)
		}
	}
	for i := 0; i < 3; i++ {
		get()
	}
	if got := rt.Healthy(); got != 1 {
		t.Fatalf("Healthy() = %d after %d consecutive failures, want ejection", got, failThreshold)
	}
	if got := rt.m.ejections[0].Value(); got != 1 {
		t.Errorf("router_ejections_total{backend=0} = %d, want 1", got)
	}
	if got := rt.m.failovers.Value(); got != 3 {
		t.Errorf("router_failovers_total = %d, want 3", got)
	}

	// Ejected: requests route straight to the replica, no more failovers.
	get()
	if got := rt.m.failovers.Value(); got != 3 {
		t.Errorf("ejected backend still being tried: failovers = %d", got)
	}

	// Probe against a still-down backend: no readmission.
	rt.probeOnce(context.Background())
	if rt.Healthy() != 1 {
		t.Fatal("probe readmitted a backend whose /healthz still fails")
	}

	// Recovery: one successful probe readmits.
	flaky.down.Store(false)
	rt.probeOnce(context.Background())
	if got := rt.Healthy(); got != 2 {
		t.Fatalf("Healthy() = %d after successful probe, want 2", got)
	}
	if got := rt.m.readmissions[0].Value(); got != 1 {
		t.Errorf("router_readmissions_total{backend=0} = %d, want 1", got)
	}
	get()
}

func TestRateLimit429IsNotAFailure(t *testing.T) {
	limited := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", "42")
		w.Header().Set("X-Rate-Limit-Reset", "12345")
		w.WriteHeader(http.StatusTooManyRequests)
		_, _ = io.WriteString(w, `{"errors":[{"code":88,"message":"Rate limit exceeded"}]}`+"\n")
	}))
	defer limited.Close()

	rt, err := New(Config{
		Backends:      []string{limited.URL, limited.URL},
		Registry:      metrics.NewRegistry(),
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.noHedge = true
	front := httptest.NewServer(rt)
	defer front.Close()

	for i := 0; i < 2*failThreshold; i++ {
		resp, err := front.Client().Get(front.URL + "/1.1/followers/ids.json?user_id=1&cursor=-1")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("HTTP %d, want the backend's 429 relayed", resp.StatusCode)
		}
		// The rate-limit vocabulary must survive the relay: clients
		// schedule their backoff off these headers.
		if resp.Header.Get("Retry-After") != "42" || resp.Header.Get("X-Rate-Limit-Reset") != "12345" {
			t.Fatalf("rate-limit headers lost in relay: %v", resp.Header)
		}
	}
	if got := rt.Healthy(); got != 2 {
		t.Fatalf("429s ejected a healthy backend: Healthy() = %d", got)
	}
	if got := rt.m.failovers.Value(); got != 0 {
		t.Errorf("429 triggered failover: %d", got)
	}
}

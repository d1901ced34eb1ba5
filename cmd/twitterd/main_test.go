package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fakeproject/internal/metrics"
	"fakeproject/internal/platform"
	"fakeproject/internal/population"
	"fakeproject/internal/simclock"
	"fakeproject/internal/twitter"
)

// TestMetricsSmoke boots the exact production handler assembly, drives a few
// API requests through it, and checks every observability surface: /metrics
// parses as valid Prometheus text and contains the per-endpoint histograms
// and store counters, /metrics.json is served, the dashboard assets are
// embedded, and pprof answers when enabled. CI runs this as its scrape
// smoke step.
func TestMetricsSmoke(t *testing.T) {
	// Durable mode, exactly as `twitterd -wal-dir` boots it, so the WAL's
	// metric families are part of the scraped surface under test.
	p, err := assemble(platform.Spec{
		WALDir:    t.TempDir(),
		Seed:      1,
		Metrics:   true,
		Dashboard: true,
		Pprof:     true,
	}, simclock.Real{}, func(store *twitter.Store) error {
		_, err := population.NewGenerator(store, 1).BuildTarget(population.TargetSpec{
			ScreenName: "smoke",
			Followers:  300,
			Layout:     population.Layout{{Width: 0, Mix: population.FromPercentages(40, 20, 40)}},
			Statuses:   20,
			FollowSpan: 365 * 24 * time.Hour,
		})
		return err
	})
	if err != nil {
		t.Fatalf("assembling: %v", err)
	}
	defer p.Stop(context.Background())
	if err := p.WAL.Compact(); err != nil {
		t.Fatalf("compacting: %v", err)
	}

	srv := httptest.NewServer(p.Mux)
	defer srv.Close()

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("GET %s: reading body: %v", path, err)
		}
		return resp, string(body)
	}

	// Drive the API plane so the histograms have samples.
	for i := 0; i < 4; i++ {
		resp, body := get("/1.1/users/show.json?screen_name=smoke")
		if resp.StatusCode != 200 {
			t.Fatalf("users/show: HTTP %d: %s", resp.StatusCode, body)
		}
	}
	if resp, body := get("/1.1/followers/ids.json?screen_name=smoke&cursor=-1"); resp.StatusCode != 200 {
		t.Fatalf("followers/ids: HTTP %d: %s", resp.StatusCode, body)
	}

	// The Prometheus exposition must parse and cover the expected families.
	resp, body := get("/metrics")
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics content type %q, want the 0.0.4 text format", ct)
	}
	fams, err := metrics.ParseText(strings.NewReader(body))
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	byName := map[string]metrics.ParsedFamily{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	for _, want := range []string{
		"http_requests_total",
		"http_request_duration_seconds",
		"http_requests_in_flight",
		"ratelimit_throttled_total",
		"wal_records_total",
		"wal_bytes_total",
		"wal_fsync_seconds",
		"wal_compactions_total",
	} {
		if _, ok := byName[want]; !ok {
			t.Errorf("/metrics missing family %s", want)
		}
	}
	if f := byName["http_request_duration_seconds"]; f.Type != "histogram" {
		t.Errorf("http_request_duration_seconds type %q, want histogram", f.Type)
	}
	if f := byName["wal_fsync_seconds"]; f.Type != "histogram" {
		t.Errorf("wal_fsync_seconds type %q, want histogram", f.Type)
	}
	// The population build ran through the log: the record counter must have
	// real traffic in it, and the post-build compaction must be visible.
	if !walCounterPositive(body, "wal_records_total") {
		t.Errorf("wal_records_total not positive:\n%s", grepLines(body, "wal_records_total"))
	}
	if !walCounterPositive(body, "wal_compactions_total") {
		t.Errorf("wal_compactions_total not positive:\n%s", grepLines(body, "wal_compactions_total"))
	}
	if !strings.Contains(body, `http_requests_total{code="2xx",endpoint="users/show",plane="api"} 4`) {
		t.Errorf("per-endpoint 2xx counter missing or wrong:\n%s", grepLines(body, "http_requests_total"))
	}

	// JSON exposition, dashboard assets and pprof ride on the same mux.
	if resp, body := get("/metrics.json"); resp.StatusCode != 200 || !strings.Contains(body, `"families"`) {
		t.Errorf("/metrics.json: HTTP %d, body %.80q", resp.StatusCode, body)
	}
	if resp, body := get("/dashboard/"); resp.StatusCode != 200 || !strings.Contains(body, "ops dashboard") {
		t.Errorf("/dashboard/: HTTP %d, body %.80q", resp.StatusCode, body)
	}
	if resp, _ := get("/dashboard/app.js"); resp.StatusCode != 200 {
		t.Errorf("/dashboard/app.js: HTTP %d", resp.StatusCode)
	}
	if resp, _ := get("/debug/pprof/cmdline"); resp.StatusCode != 200 {
		t.Errorf("/debug/pprof/cmdline: HTTP %d", resp.StatusCode)
	}
}

// TestObservabilityOff checks the gating: with everything off the root
// handler is the bare API server and none of the extra surfaces exist.
func TestObservabilityOff(t *testing.T) {
	p, err := assemble(platform.Spec{}, simclock.Real{}, func(*twitter.Store) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(p.Mux)
	defer srv.Close()

	for _, path := range []string{"/metrics", "/metrics.json", "/dashboard/", "/debug/pprof/"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode == 200 {
			t.Errorf("GET %s: served despite observability off", path)
		}
	}
}

// walCounterPositive reports whether the named sample appears in the
// exposition with a value greater than zero.
func walCounterPositive(body, name string) bool {
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, name+" ") && !strings.HasPrefix(line, name+"{") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[1] != "0" && fields[1] != "0.0" {
			return true
		}
	}
	return false
}

func grepLines(s, substr string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

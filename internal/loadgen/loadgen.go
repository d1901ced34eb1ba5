// Package loadgen is the end-to-end load-generation and latency harness for
// the HTTP plane: it drives running twitterd (or routerd) and auditd
// daemons over HTTP with composable workload mixes, using an open-loop
// (fixed-arrival-rate) schedule so that server slowdowns show up as latency
// instead of silently throttling the generator. It never builds a platform
// of its own: what the daemons do meanwhile (churn, a ring member dying) is
// the caller's to arrange, which the package's tests do on a deployment
// they assemble themselves.
//
// Per-endpoint latencies land in fixed-bucket log-linear histograms (no
// per-request allocation), together with throughput, error and throttle
// counters; Result.Format prints them as one table per mix. The harness is
// the open-loop driver of the smokes and the chaos test, not a measurement
// of record: numbers that are compared across commits come from the
// closed-loop benchmark (go run ./bench, BENCHMARK.json).
//
// The five standard mixes (see scenarios.go): crawl-heavy, audit-heavy,
// churn-storm, celebrity-hotspot and multinode. cmd/loadd is the CLI front
// end.
package loadgen

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fakeproject/internal/metrics"
)

// ErrThrottled classifies an HTTP 429 — an expected outcome under rate
// limits and queue backpressure, counted separately from real errors.
var ErrThrottled = errors.New("loadgen: throttled (429)")

// Op is one scheduled request: an endpoint label for the metrics and the
// call that performs it.
type Op struct {
	// Endpoint is the metrics key, e.g. "followers/ids" or "audits/submit".
	Endpoint string
	// Do performs the request. Return nil on success, ErrThrottled (or a
	// wrapper of it) on 429, anything else on failure.
	Do func(ctx context.Context) error
}

// Mix produces the operation for each arrival. Next is called from the
// scheduler goroutine only (serially, in arrival order), so a mix may keep
// unsynchronised state there; the returned Op.Do runs on a worker
// goroutine and must be safe to run concurrently with other ops.
type Mix interface {
	Name() string
	Next(i int) Op
}

// EndpointStats is the aggregated outcome for one endpoint label.
type EndpointStats struct {
	Endpoint  string
	Count     uint64 // completed requests, including throttled ones
	Errors    uint64 // non-429 failures
	Throttled uint64 // 429s
	P50       time.Duration
	P90       time.Duration
	P99       time.Duration
	P999      time.Duration
	Max       time.Duration
	// Throughput is completed requests per second of run duration.
	Throughput float64
	// ErrorSamples holds the first few distinct failure messages.
	ErrorSamples []string
}

// Result is the outcome of one mix run.
type Result struct {
	Mix      string
	Duration time.Duration
	// Offered is how many arrivals the schedule contained; Shed counts
	// arrivals dropped because the in-flight cap was reached (overload
	// protection for the generator itself, reported, never silent).
	Offered, Shed int
	Endpoints     []EndpointStats
}

// TotalErrors sums non-429 failures across endpoints.
func (r Result) TotalErrors() uint64 {
	var n uint64
	for _, e := range r.Endpoints {
		n += e.Errors
	}
	return n
}

// TotalCount sums completed requests across endpoints.
func (r Result) TotalCount() uint64 {
	var n uint64
	for _, e := range r.Endpoints {
		n += e.Count
	}
	return n
}

// errorSampleCap bounds how many failure messages are retained per endpoint.
const errorSampleCap = 5

// endpointRec is the live recording state for one endpoint label.
type endpointRec struct {
	hist      metrics.Histogram
	errors    atomic.Uint64
	throttled atomic.Uint64

	mu      sync.Mutex
	samples []string
}

func (e *endpointRec) record(d time.Duration, err error) {
	e.hist.Record(d)
	switch {
	case err == nil:
	case errors.Is(err, ErrThrottled):
		e.throttled.Add(1)
	default:
		e.errors.Add(1)
		e.mu.Lock()
		if len(e.samples) < errorSampleCap {
			e.samples = append(e.samples, err.Error())
		}
		e.mu.Unlock()
	}
}

// Collector aggregates per-endpoint recordings for one run.
type Collector struct {
	mu   sync.RWMutex
	recs map[string]*endpointRec

	// publish, when set, exports each new endpoint's series into a metrics
	// registry the moment the endpoint first records (see Publish).
	publish func(endpoint string, r *endpointRec)
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{recs: make(map[string]*endpointRec)}
}

// Publish exports the collector into reg under the given extra labels
// (typically the mix name): every endpoint — current and future — gets a
// loadgen_request_duration_seconds histogram plus error and throttle
// counters. The histograms are registered by reference, so the live
// dashboard and the end-of-run report read the same buckets.
func (c *Collector) Publish(reg *metrics.Registry, labels ...metrics.Label) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.publish = func(endpoint string, r *endpointRec) {
		ls := append(append([]metrics.Label(nil), labels...), metrics.L("endpoint", endpoint))
		reg.RegisterHistogram("loadgen_request_duration_seconds",
			"Client-observed latency from scheduled arrival to completion.", &r.hist, ls...)
		reg.CounterFunc("loadgen_errors_total", "Non-429 request failures.",
			func() float64 { return float64(r.errors.Load()) }, ls...)
		reg.CounterFunc("loadgen_throttled_total", "Requests answered 429.",
			func() float64 { return float64(r.throttled.Load()) }, ls...)
	}
	for name, r := range c.recs {
		c.publish(name, r)
	}
}

func (c *Collector) rec(endpoint string) *endpointRec {
	c.mu.RLock()
	r := c.recs[endpoint]
	c.mu.RUnlock()
	if r != nil {
		return r
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if r = c.recs[endpoint]; r == nil {
		r = &endpointRec{}
		c.recs[endpoint] = r
		if c.publish != nil {
			c.publish(endpoint, r)
		}
	}
	return r
}

// Record files one completed request.
func (c *Collector) Record(endpoint string, d time.Duration, err error) {
	c.rec(endpoint).record(d, err)
}

// Stats snapshots every endpoint, sorted by label.
func (c *Collector) Stats(runDuration time.Duration) []EndpointStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]EndpointStats, 0, len(c.recs))
	for name, r := range c.recs {
		s := EndpointStats{
			Endpoint:  name,
			Count:     r.hist.Count(),
			Errors:    r.errors.Load(),
			Throttled: r.throttled.Load(),
			P50:       r.hist.Quantile(0.50),
			P90:       r.hist.Quantile(0.90),
			P99:       r.hist.Quantile(0.99),
			P999:      r.hist.Quantile(0.999),
			Max:       r.hist.Max(),
		}
		if runDuration > 0 {
			s.Throughput = float64(s.Count) / runDuration.Seconds()
		}
		r.mu.Lock()
		s.ErrorSamples = append([]string(nil), r.samples...)
		r.mu.Unlock()
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Endpoint < out[j].Endpoint })
	return out
}

// Run executes the mix under the pattern for the given duration, with at
// most maxInFlight requests outstanding. Latency is measured from each
// request's *scheduled* arrival instant, not its dispatch instant, so any
// delay the generator itself accumulates counts against the server — the
// open-loop discipline that avoids coordinated omission.
func Run(ctx context.Context, mix Mix, p Pattern, d time.Duration, maxInFlight int) Result {
	return RunWith(ctx, mix, p, d, maxInFlight, NewCollector())
}

// RunWith is Run recording into a caller-supplied collector, so a progress
// reporter or a published metrics registry can watch the run live.
func RunWith(ctx context.Context, mix Mix, p Pattern, d time.Duration, maxInFlight int, col *Collector) Result {
	if maxInFlight <= 0 {
		maxInFlight = 256
	}
	offsets := p.Schedule(d)
	if col == nil {
		col = NewCollector()
	}
	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	shed := 0

	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C

loop:
	for i, off := range offsets {
		if wait := time.Until(start.Add(off)); wait > 0 {
			timer.Reset(wait)
			select {
			case <-ctx.Done():
				break loop
			case <-timer.C:
			}
		} else if ctx.Err() != nil {
			break loop
		}
		op := mix.Next(i)
		select {
		case sem <- struct{}{}:
		default:
			shed++
			continue
		}
		wg.Add(1)
		scheduled := start.Add(off)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			err := op.Do(ctx)
			if err != nil && errors.Is(err, context.Canceled) {
				// An interrupted run (Ctrl-C) cancels every in-flight
				// request; those are casualties of the interrupt, not
				// server failures, and must not count as errors.
				return
			}
			col.Record(op.Endpoint, time.Since(scheduled), err)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	return Result{
		Mix:       mix.Name(),
		Duration:  elapsed,
		Offered:   len(offsets),
		Shed:      shed,
		Endpoints: col.Stats(elapsed),
	}
}

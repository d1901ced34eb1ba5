package router

import (
	"context"
	"net/http"
)

// Backend health: a backend is routable until it fails failThreshold
// attempts in a row, where a failure is a transport error or a 5xx — a 429
// or any other 4xx is the backend doing its job and never counts. Ejected
// backends are readmitted by the probe loop the moment a GET /healthz
// succeeds; ejection only steers new attempts, it never cancels in-flight
// ones, so a blip costs at most the attempts already racing.

// failThreshold is how many consecutive failures eject a backend.
const failThreshold = 3

// onResult feeds one upstream attempt's outcome into b's health state.
func (rt *Router) onResult(b *backend, status int, err error) {
	if err == nil && status < http.StatusInternalServerError {
		b.fails.Store(0)
		return
	}
	if b.fails.Add(1) < failThreshold {
		return
	}
	if b.healthy.Swap(false) {
		// First observer of the threshold crossing records the ejection.
		if rt.m.ejections != nil {
			rt.m.ejections[b.index].Inc()
		}
		if b.healthyG != nil {
			b.healthyG.Set(0)
		}
	}
}

// probeOnce health-checks every ejected backend and readmits the ones that
// answer. Exposed to in-package tests so virtual-clock suites can drive
// readmission without a running probe loop.
func (rt *Router) probeOnce(ctx context.Context) {
	for _, b := range rt.backends {
		if b.healthy.Load() {
			continue
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base+"/healthz", nil)
		if err != nil {
			continue
		}
		resp, err := rt.client.Do(req)
		if err != nil {
			continue
		}
		drainClose(resp)
		if resp.StatusCode != http.StatusOK {
			continue
		}
		b.fails.Store(0)
		if !b.healthy.Swap(true) {
			if rt.m.readmissions != nil {
				rt.m.readmissions[b.index].Inc()
			}
			if b.healthyG != nil {
				b.healthyG.Set(1)
			}
		}
	}
}

// probeLoop paces probeOnce at ProbeInterval until Close. It runs only on
// a real clock (a virtual clock's Sleep returns immediately and would spin;
// virtual-time tests disable the loop and call probeOnce directly).
func (rt *Router) probeLoop() {
	defer rt.inflight.Done()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-rt.stop
		cancel()
	}()
	for {
		rt.clock.Sleep(rt.cfg.ProbeInterval)
		select {
		case <-rt.stop:
			return
		default:
		}
		rt.probeOnce(ctx)
	}
}

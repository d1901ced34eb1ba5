package auditd

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"time"

	"fakeproject/internal/metrics"
)

// Handler exposes a Service over an HTTP JSON API:
//
//	POST /v1/audits            submit a job; body {"target","tools","priority"}.
//	                           Optional ?wait=5s blocks for the result.
//	GET  /v1/audits            list retained jobs (?target= filters).
//	GET  /v1/audits/{id}       one job; optional ?wait=5s blocks until done.
//	GET  /v1/stats             operational counters.
//	GET  /healthz              liveness probe.
//
// Submissions answer 200 when complete (cache fast path or wait), 202 when
// accepted and pending, 429 on queue backpressure, and 400 on bad specs.
type Handler struct {
	svc *Service
	mux *http.ServeMux
	// maxWait bounds the ?wait parameter so clients cannot pin handler
	// goroutines forever.
	maxWait time.Duration
}

// NewHandler builds the HTTP API for svc, unobserved.
func NewHandler(svc *Service) *Handler { return NewHandlerObserved(svc, nil) }

// NewHandlerObserved is the one handler builder. With a registry every
// route is wrapped in the shared HTTP instrumentation (plane "audit") and
// the service's operational counters are exported into reg; with a nil
// registry the routes are mounted bare.
func NewHandlerObserved(svc *Service, reg *metrics.Registry) *Handler {
	h := &Handler{svc: svc, mux: http.NewServeMux(), maxWait: 5 * time.Minute}
	var plane *metrics.HTTPPlane
	if reg != nil {
		plane = metrics.NewHTTPPlane(reg, "audit", svc.clock)
		svc.Observe(reg)
	}
	for _, rt := range h.routes() {
		h.mux.Handle(rt.pattern, plane.Wrap(rt.endpoint, rt.handler))
	}
	return h
}

// handlerRoute binds one mux pattern to its metrics endpoint label.
type handlerRoute struct {
	pattern  string
	endpoint string
	handler  http.HandlerFunc
}

func (h *Handler) routes() []handlerRoute {
	return []handlerRoute{
		{"POST /v1/audits", "audits/submit", h.submit},
		{"GET /v1/audits", "audits/list", h.list},
		{"GET /v1/audits/{id}", "audits/get", h.get},
		{"GET /v1/stats", "stats", h.stats},
		{"GET /healthz", "healthz", h.health},
	}
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.mux.ServeHTTP(w, r) }

type errorJSON struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func (h *Handler) fail(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorJSON{Error: err.Error()})
}

// parseWait reads the optional ?wait=DURATION query parameter.
func (h *Handler) parseWait(r *http.Request) (time.Duration, error) {
	raw := r.URL.Query().Get("wait")
	if raw == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil {
		return 0, errors.New("invalid wait duration " + raw)
	}
	if d < 0 {
		d = 0
	}
	if d > h.maxWait {
		d = h.maxWait
	}
	return d, nil
}

func (h *Handler) submit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		h.fail(w, http.StatusBadRequest, errors.New("decoding job spec: "+err.Error()))
		return
	}
	wait, err := h.parseWait(r)
	if err != nil {
		h.fail(w, http.StatusBadRequest, err)
		return
	}
	snap, err := h.svc.Submit(spec)
	switch {
	case errors.Is(err, ErrBadSpec):
		h.fail(w, http.StatusBadRequest, err)
		return
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		h.fail(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrClosed):
		h.fail(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		h.fail(w, http.StatusInternalServerError, err)
		return
	}
	if wait > 0 && !snap.State.Terminal() {
		ctx, cancel := context.WithTimeout(r.Context(), wait)
		defer cancel()
		if done, err := h.svc.Await(ctx, snap.ID); err == nil {
			snap = done
		}
	}
	status := http.StatusAccepted
	if snap.State.Terminal() {
		status = http.StatusOK
	}
	writeJSON(w, status, snap)
}

func (h *Handler) get(w http.ResponseWriter, r *http.Request) {
	id := JobID(r.PathValue("id"))
	wait, err := h.parseWait(r)
	if err != nil {
		h.fail(w, http.StatusBadRequest, err)
		return
	}
	var snap JobSnapshot
	if wait > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), wait)
		defer cancel()
		snap, err = h.svc.Await(ctx, id)
		if errors.Is(err, context.DeadlineExceeded) {
			snap, err = h.svc.Get(id)
		}
	} else {
		snap, err = h.svc.Get(id)
	}
	if errors.Is(err, ErrUnknownJob) {
		h.fail(w, http.StatusNotFound, err)
		return
	}
	if err != nil {
		h.fail(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

func (h *Handler) list(w http.ResponseWriter, r *http.Request) {
	target := strings.TrimSpace(r.URL.Query().Get("target"))
	jobs := h.svc.List()
	if target != "" {
		filtered := jobs[:0]
		for _, j := range jobs {
			if j.Spec.Target == target {
				filtered = append(filtered, j)
			}
		}
		jobs = filtered
	}
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobSnapshot `json:"jobs"`
	}{Jobs: jobs})
}

func (h *Handler) stats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, h.svc.Stats())
}

// health answers the readiness probe. A degraded service (queue at
// capacity, or workers stalled with jobs waiting) answers 503 so load
// balancers and orchestrators actually take it out of rotation — the
// probe is a real signal, not a static "ok".
func (h *Handler) health(w http.ResponseWriter, r *http.Request) {
	health := h.svc.Health()
	status := http.StatusOK
	if health.Status != "ok" {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, health)
}

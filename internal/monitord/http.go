package monitord

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"time"

	"fakeproject/internal/metrics"
)

// Handler exposes a Monitor over an HTTP JSON API, designed to mount next
// to the auditd API on one server:
//
//	POST   /v1/watch             register a watch; body {"target","tools",
//	                             "cadence":"24h","rules":{...}}
//	GET    /v1/watch             list watches with schedule state.
//	DELETE /v1/watch/{target}    remove a watch.
//	GET    /v1/series/{target}   per-tool verdict time series.
//	GET    /v1/alerts            retained alerts (?target= filters).
type Handler struct {
	mon *Monitor
	mux *http.ServeMux
}

// NewHandler builds the HTTP API for mon, unobserved.
func NewHandler(mon *Monitor) *Handler { return NewHandlerObserved(mon, nil) }

// NewHandlerObserved is the one handler builder. With a registry every
// route is wrapped in the shared HTTP instrumentation (plane "monitor") and
// the monitor's scheduler and alert counters are exported into reg; with a
// nil registry the routes are mounted bare.
func NewHandlerObserved(mon *Monitor, reg *metrics.Registry) *Handler {
	h := &Handler{mon: mon, mux: http.NewServeMux()}
	var plane *metrics.HTTPPlane
	if reg != nil {
		plane = metrics.NewHTTPPlane(reg, "monitor", mon.clock)
		mon.Observe(reg)
	}
	for _, rt := range h.routes() {
		route := http.Handler(rt.handler)
		if reg != nil {
			route = plane.WrapFunc(rt.endpoint, rt.handler)
		}
		h.mux.Handle(rt.pattern, route)
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
		{"POST /v1/watch", "watch/create", h.watch},
		{"GET /v1/watch", "watch/list", h.list},
		{"DELETE /v1/watch/{target}", "watch/delete", h.unwatch},
		{"GET /v1/series/{target}", "series", h.series},
		{"GET /v1/alerts", "alerts", h.alerts},
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

// watchRequest is WatchSpec with a human-friendly duration string, matching
// the ?wait= convention of the audit API.
type watchRequest struct {
	Target  string   `json:"target"`
	Tools   []string `json:"tools,omitempty"`
	Cadence string   `json:"cadence,omitempty"`
	Rules   Rules    `json:"rules"`
}

func (h *Handler) watch(w http.ResponseWriter, r *http.Request) {
	var req watchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		h.fail(w, http.StatusBadRequest, errors.New("decoding watch spec: "+err.Error()))
		return
	}
	spec := WatchSpec{Target: req.Target, Tools: req.Tools, Rules: req.Rules}
	if req.Cadence != "" {
		d, err := time.ParseDuration(req.Cadence)
		if err != nil {
			h.fail(w, http.StatusBadRequest, errors.New("invalid cadence "+req.Cadence))
			return
		}
		spec.Cadence = d
	}
	err := h.mon.Watch(spec)
	switch {
	case errors.Is(err, ErrBadWatch):
		h.fail(w, http.StatusBadRequest, err)
	case errors.Is(err, ErrClosed):
		h.fail(w, http.StatusServiceUnavailable, err)
	case err != nil:
		h.fail(w, http.StatusInternalServerError, err)
	default:
		if st, ok := h.mon.Status(spec.Target); ok {
			writeJSON(w, http.StatusCreated, st)
			return
		}
		// Registered but unwatched in between — report what was created.
		writeJSON(w, http.StatusCreated, WatchStatus{Spec: spec})
	}
}

func (h *Handler) list(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Watches []WatchStatus `json:"watches"`
	}{Watches: h.mon.Watches()})
}

func (h *Handler) unwatch(w http.ResponseWriter, r *http.Request) {
	target := r.PathValue("target")
	if err := h.mon.Unwatch(target); err != nil {
		h.fail(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Removed string `json:"removed"`
	}{Removed: target})
}

func (h *Handler) series(w http.ResponseWriter, r *http.Request) {
	target := r.PathValue("target")
	series, ok := h.mon.Series(target)
	if !ok {
		h.fail(w, http.StatusNotFound, errors.New("monitord: no series for "+target))
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Target string             `json:"target"`
		Series map[string][]Point `json:"series"`
	}{Target: target, Series: series})
}

func (h *Handler) alerts(w http.ResponseWriter, r *http.Request) {
	target := strings.TrimSpace(r.URL.Query().Get("target"))
	writeJSON(w, http.StatusOK, struct {
		Alerts []Alert `json:"alerts"`
	}{Alerts: h.mon.Alerts(target)})
}

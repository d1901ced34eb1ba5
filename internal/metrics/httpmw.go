package metrics

import (
	"net/http"
	"sync"
	"time"
)

//fp:hotpath

// HTTP plane middleware: one HTTPPlane per daemon surface (plane label),
// one Wrap per route (endpoint label). All series are created at Wrap
// time, so the per-request path is two clock reads, a histogram record
// and one counter increment — no locks, no maps, no allocations (a pooled
// writer captures the status code).
//
// Families:
//
//	http_requests_total{plane,endpoint,code}     counter, code = 1xx..5xx
//	http_request_duration_seconds{plane,endpoint} histogram
//	http_requests_in_flight{plane}                gauge

// Clock is the one clock operation the middleware needs. It is satisfied by
// simclock.Clock (any larger interface assigns to it), declared locally so
// metrics stays a stdlib-only leaf package.
type Clock interface {
	Now() time.Time
}

// HTTPPlane instruments the routes of one HTTP surface.
type HTTPPlane struct {
	reg      *Registry
	plane    string
	clock    Clock
	inFlight *IntGauge
}

// NewHTTPPlane returns a plane-scoped instrumenter. Latencies are measured
// on the given clock so virtual-time tests see virtual durations.
func NewHTTPPlane(reg *Registry, plane string, clock Clock) *HTTPPlane {
	return &HTTPPlane{
		reg:   reg,
		plane: plane,
		clock: clock,
		inFlight: reg.IntGauge("http_requests_in_flight",
			"Requests currently being served.", L("plane", plane)),
	}
}

// statusClasses pre-creates the five status-class counters per endpoint so
// the request path indexes an array instead of formatting a label.
var statusClassNames = [5]string{"1xx", "2xx", "3xx", "4xx", "5xx"}

type endpointSeries struct {
	hist    *Histogram
	classes [5]*Counter
}

// Wrap instruments h as the named endpoint. Call once per route at mux
// assembly time. A nil plane — an unobserved surface — returns h unchanged.
func (p *HTTPPlane) Wrap(endpoint string, h http.Handler) http.Handler {
	if p == nil {
		return h
	}
	es := &endpointSeries{
		hist: p.reg.Histogram("http_request_duration_seconds",
			"Time to serve a request, by plane and endpoint.",
			L("plane", p.plane), L("endpoint", endpoint)),
	}
	for i, class := range statusClassNames {
		es.classes[i] = p.reg.Counter("http_requests_total",
			"Requests served, by plane, endpoint and status class.",
			L("plane", p.plane), L("endpoint", endpoint), L("code", class))
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := statusWriters.Get().(*statusWriter)
		sw.ResponseWriter, sw.status = w, http.StatusOK
		p.inFlight.Inc()
		start := p.clock.Now()
		h.ServeHTTP(sw, r)
		es.hist.Record(p.clock.Now().Sub(start))
		p.inFlight.Dec()
		class := sw.status/100 - 1
		sw.ResponseWriter = nil
		statusWriters.Put(sw)
		if class < 0 || class > 4 {
			class = 4
		}
		es.classes[class].Inc()
	})
}

// statusWriter captures the response status code. Pooled: one Get/Put pair
// per request keeps the middleware allocation-free at steady state.
type statusWriter struct {
	http.ResponseWriter
	status int
}

var statusWriters = sync.Pool{New: func() any { return &statusWriter{} }}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer when it supports flushing, so
// streaming handlers behave the same instrumented or not.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

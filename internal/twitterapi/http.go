package twitterapi

import (
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"fakeproject/internal/metrics"
	"fakeproject/internal/ratelimit"
	"fakeproject/internal/simclock"
	"fakeproject/internal/twitter"
)

// Server serves the API over HTTP with per-token rate limiting, mimicking
// api.twitter.com/1.1 closely enough that the HTTP client and the in-process
// client are interchangeable.
type Server struct {
	svc     *Service
	clock   simclock.Clock
	limiter *ratelimit.Limiter
	limits  map[string]ratelimit.Limit
	mux     *http.ServeMux
	// throttled holds the per-endpoint 429 counters of an observed server
	// (nil on a plain one); pre-built at assembly so gate() stays cheap.
	throttled map[string]*metrics.Counter
}

// NewServerLimits builds the HTTP front end with an explicit per-endpoint
// budget table (DefaultLimits is Table I), unobserved. Budgets are per
// (endpoint, bearer token) pair, as on the real platform. Endpoints absent
// from the table are unlimited; a nil table disables rate limiting entirely
// — the configuration the load harness uses to measure the serving hot path
// rather than the limiter's rejections.
func NewServerLimits(svc *Service, clock simclock.Clock, limits map[string]ratelimit.Limit) *Server {
	return NewServerObserved(svc, clock, limits, nil)
}

// NewServerObserved is the one server builder. With a registry it wraps the
// shared HTTP instrumentation around every API route (plane "api"):
// per-endpoint latency histograms and status-class counters in reg, plus 429
// throttle counters fed from gate() and the limiter's rejection/backoff
// totals. With a nil registry the routes are mounted bare — no wrapper on
// the request path, no counters.
func NewServerObserved(svc *Service, clock simclock.Clock, limits map[string]ratelimit.Limit, reg *metrics.Registry) *Server {
	s := &Server{
		svc:     svc,
		clock:   clock,
		limiter: ratelimit.New(clock, nil),
		limits:  limits,
		mux:     http.NewServeMux(),
	}
	var plane *metrics.HTTPPlane
	if reg != nil {
		plane = metrics.NewHTTPPlane(reg, "api", clock)
		s.throttled = make(map[string]*metrics.Counter)
		reg.CounterFunc("ratelimit_backoffs_total",
			"Reserve calls that had to wait for a budget window.",
			func() float64 { return float64(s.limiter.Stats().Backoffs) },
			metrics.L("plane", "api"))
	}
	for _, rt := range s.routes() {
		if reg != nil {
			s.throttled[rt.endpoint] = reg.Counter("ratelimit_throttled_total",
				"Requests rejected with 429 by the endpoint budget.",
				metrics.L("plane", "api"), metrics.L("endpoint", rt.endpoint))
		}
		s.mux.Handle(rt.path, plane.Wrap(rt.endpoint, rt.handler))
	}
	s.mux.HandleFunc("GET /admin/resolve", s.handleResolve)
	return s
}

// handleResolve answers GET /admin/resolve?screen_name= with the account's
// id as a bare decimal, or 404 for a name users/show does not know. It is
// the router's name resolution: outside routes(), so it debits no budget
// and records no api metric.
func (s *Server) handleResolve(w http.ResponseWriter, r *http.Request) {
	id, err := s.svc.Store().LookupName(r.URL.Query().Get("screen_name"))
	if err != nil {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain")
	_, _ = w.Write(strconv.AppendInt(nil, int64(id), 10))
}

// route binds one API path to its endpoint label (the Table I name, also
// the rate-limit and metrics key) and handler.
type route struct {
	path     string
	endpoint string
	handler  http.HandlerFunc
}

func (s *Server) routes() []route {
	return []route{
		{"/1.1/followers/ids.json", EndpointFollowerIDs, s.handleFollowerIDs},
		{"/1.1/friends/ids.json", EndpointFriendIDs, s.handleFriendIDs},
		{"/1.1/users/lookup.json", EndpointUsersLookup, s.handleUsersLookup},
		{"/1.1/users/show.json", EndpointUsersShow, s.handleUsersShow},
		{"/1.1/statuses/user_timeline.json", EndpointUserTimeline, s.handleUserTimeline},
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func tokenOf(r *http.Request) string {
	auth := r.Header.Get("Authorization")
	if strings.HasPrefix(auth, "Bearer ") {
		return strings.TrimPrefix(auth, "Bearer ")
	}
	return "anonymous"
}

// gate applies the endpoint's rate limit for the request's token. It returns
// false after writing a 429 if the budget is exhausted. An endpoint without
// a budget — every endpoint, under a nil table — is not a limiter matter:
// no key is built for it.
func (s *Server) gate(w http.ResponseWriter, r *http.Request, endpoint string) bool {
	lim, limited := s.limits[endpoint]
	if !limited {
		return true
	}
	key := endpoint + "|" + tokenOf(r)
	if _, ok := s.limiter.LimitFor(key); !ok {
		s.limiter.SetLimit(key, lim)
	}
	ok, retry := s.limiter.Allow(key)
	if ok {
		return true
	}
	if c := s.throttled[endpoint]; c != nil {
		c.Inc()
	}
	secs := int(retry / time.Second)
	if retry%time.Second != 0 {
		secs++
	}
	// Advertise both the relative back-off and the absolute window
	// boundary. The absolute form (epoch seconds, as on api.twitter.com)
	// is what concurrent clients need: a relative Retry-After is stamped
	// at rejection time and goes stale the moment the sleep starts late.
	// Rounded up so a client honouring it never wakes inside the window.
	reset := s.clock.Now().Add(retry)
	epoch := reset.Unix()
	if reset.Nanosecond() != 0 {
		epoch++
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	w.Header().Set("X-Rate-Limit-Remaining", "0")
	w.Header().Set("X-Rate-Limit-Reset", strconv.FormatInt(epoch, 10))
	writeError(w, http.StatusTooManyRequests, 88, "Rate limit exceeded")
	return false
}

// Each handler reads the request's query once and answers from one pooled
// buffer: the store's visitors and the append encoders of encode.go fill
// it, writeBuffered sends it.

// resolveUser supports both user_id and screen_name parameters.
func (s *Server) resolveUser(q url.Values) (twitter.UserID, error) {
	if raw := q.Get("user_id"); raw != "" {
		id, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bad user_id %q", raw)
		}
		return twitter.UserID(id), nil
	}
	if name := q.Get("screen_name"); name != "" {
		return s.svc.Store().LookupName(name)
	}
	return 0, fmt.Errorf("user_id or screen_name required")
}

// idsRequest gates an ids endpoint and parses its account and cursor. It
// returns false after answering a request it refuses.
func (s *Server) idsRequest(w http.ResponseWriter, r *http.Request, endpoint string) (twitter.UserID, int64, bool) {
	if !s.gate(w, r, endpoint) {
		return 0, 0, false
	}
	q := r.URL.Query()
	id, err := s.resolveUser(q)
	if err != nil {
		writeError(w, http.StatusNotFound, 34, err.Error())
		return 0, 0, false
	}
	cursor := CursorFirst
	if raw := q.Get("cursor"); raw != "" {
		if cursor, err = strconv.ParseInt(raw, 10, 64); err != nil {
			writeError(w, http.StatusBadRequest, 44, "bad cursor")
			return 0, 0, false
		}
	}
	return id, cursor, true
}

// writeIDsError answers a page the service refused.
func writeIDsError(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrBadCursor) {
		writeError(w, http.StatusBadRequest, 44, err.Error())
		return
	}
	writeError(w, http.StatusNotFound, 34, err.Error())
}

func (s *Server) handleFollowerIDs(w http.ResponseWriter, r *http.Request) {
	id, cursor, ok := s.idsRequest(w, r, EndpointFollowerIDs)
	if !ok {
		return
	}
	var walk twitter.FollowerWalk
	if err := s.svc.walkFollowers(&walk, id, cursor); err != nil {
		writeIDsError(w, err)
		return
	}
	buf := newResponse()
	buf.b = appendFollowerPage(buf.b, id, &walk)
	writeBuffered(w, http.StatusOK, buf)
}

func (s *Server) handleFriendIDs(w http.ResponseWriter, r *http.Request) {
	id, cursor, ok := s.idsRequest(w, r, EndpointFriendIDs)
	if !ok {
		return
	}
	page, err := s.svc.FriendIDs(id, cursor)
	if err != nil {
		writeIDsError(w, err)
		return
	}
	buf := newResponse()
	buf.b = appendIDPage(buf.b, page)
	writeBuffered(w, http.StatusOK, buf)
}

func (s *Server) handleUsersLookup(w http.ResponseWriter, r *http.Request) {
	if !s.gate(w, r, EndpointUsersLookup) {
		return
	}
	raw := r.URL.Query().Get("user_id")
	if raw == "" {
		writeError(w, http.StatusBadRequest, 44, "user_id required")
		return
	}
	if strings.Count(raw, ",") >= UsersLookupBatchSize {
		writeError(w, http.StatusBadRequest, 44, "too many ids")
		return
	}
	ids := make([]twitter.UserID, 0, UsersLookupBatchSize)
	for rest, more := raw, true; more; {
		var part string
		part, rest, more = strings.Cut(rest, ",")
		v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, 44, "bad user_id list")
			return
		}
		ids = append(ids, twitter.UserID(v))
	}
	profiles, err := s.svc.UsersLookup(ids)
	if err != nil {
		writeError(w, http.StatusBadRequest, 44, err.Error())
		return
	}
	writeUsers(w, profiles)
}

func (s *Server) handleUsersShow(w http.ResponseWriter, r *http.Request) {
	if !s.gate(w, r, EndpointUsersShow) {
		return
	}
	name := r.URL.Query().Get("screen_name")
	p, err := s.svc.UsersShow(name)
	if err != nil {
		writeError(w, http.StatusNotFound, 50, "User not found.")
		return
	}
	writeUser(w, &p)
}

func (s *Server) handleUserTimeline(w http.ResponseWriter, r *http.Request) {
	if !s.gate(w, r, EndpointUserTimeline) {
		return
	}
	q := r.URL.Query()
	id, err := s.resolveUser(q)
	if err != nil {
		writeError(w, http.StatusNotFound, 34, err.Error())
		return
	}
	count := TimelinePageSize
	if raw := q.Get("count"); raw != "" {
		count, err = strconv.Atoi(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, 44, "bad count")
			return
		}
	}
	var maxID twitter.TweetID
	if raw := q.Get("max_id"); raw != "" {
		v, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, 44, "bad max_id")
			return
		}
		maxID = twitter.TweetID(v)
	}
	buf := newResponse()
	b := append(buf.b, '[')
	err = s.svc.visitTimeline(id, count, maxID, func(tw twitter.Tweet) {
		if len(b) > 1 {
			b = append(b, ',')
		}
		b = appendTweet(b, &tw)
	})
	buf.b = b
	if err != nil {
		replyError(w, buf, http.StatusNotFound, 34, err.Error())
		return
	}
	buf.b = append(buf.b, "]\n"...)
	writeBuffered(w, http.StatusOK, buf)
}

package twitterapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"fakeproject/internal/metrics"
	"fakeproject/internal/ratelimit"
	"fakeproject/internal/simclock"
	"fakeproject/internal/twitter"
)

// timeFormat is Twitter's "created_at" wire format (Ruby date).
const timeFormat = "Mon Jan 02 15:04:05 -0700 2006"

// userJSON is the wire shape of a user object. The last_tweet_at and
// behavior fields are the extended payload documented in DESIGN.md §5.
type userJSON struct {
	ID                  int64         `json:"id"`
	ScreenName          string        `json:"screen_name"`
	Name                string        `json:"name"`
	CreatedAt           string        `json:"created_at"`
	Description         string        `json:"description"`
	Location            string        `json:"location"`
	URL                 string        `json:"url"`
	FollowersCount      int           `json:"followers_count"`
	FriendsCount        int           `json:"friends_count"`
	StatusesCount       int           `json:"statuses_count"`
	DefaultProfileImage bool          `json:"default_profile_image"`
	Protected           bool          `json:"protected"`
	Verified            bool          `json:"verified"`
	LastTweetAt         string        `json:"last_tweet_at,omitempty"`
	Behavior            *behaviorJSON `json:"behavior,omitempty"`
}

type behaviorJSON struct {
	RetweetRatio   float64 `json:"retweet_ratio"`
	LinkRatio      float64 `json:"link_ratio"`
	SpamRatio      float64 `json:"spam_ratio"`
	DuplicateRatio float64 `json:"duplicate_ratio"`
}

type tweetJSON struct {
	ID        int64  `json:"id"`
	AuthorID  int64  `json:"author_id"`
	CreatedAt string `json:"created_at"`
	Text      string `json:"text"`
	IsRetweet bool   `json:"is_retweet"`
	HasLink   bool   `json:"has_link"`
	IsReply   bool   `json:"is_reply"`
	Mentions  int    `json:"mentions"`
	Hashtags  int    `json:"hashtags"`
	Source    string `json:"source"`
}

type idPageJSON struct {
	IDs        []int64 `json:"ids"`
	NextCursor int64   `json:"next_cursor"`
}

type errorJSON struct {
	Errors []errorItemJSON `json:"errors"`
}

type errorItemJSON struct {
	Code    int    `json:"code"`
	Message string `json:"message"`
}

func encodeUser(p twitter.Profile) userJSON {
	u := userJSON{
		ID:                  int64(p.ID),
		ScreenName:          p.ScreenName,
		Name:                p.Name,
		CreatedAt:           p.CreatedAt.Format(timeFormat),
		Description:         p.Bio,
		Location:            p.Location,
		URL:                 p.URL,
		FollowersCount:      p.FollowersCount,
		FriendsCount:        p.FriendsCount,
		StatusesCount:       p.StatusesCount,
		DefaultProfileImage: p.DefaultProfileImage,
		Protected:           p.Protected,
		Verified:            p.Verified,
		Behavior: &behaviorJSON{
			RetweetRatio:   p.Behavior.RetweetRatio,
			LinkRatio:      p.Behavior.LinkRatio,
			SpamRatio:      p.Behavior.SpamRatio,
			DuplicateRatio: p.Behavior.DuplicateRatio,
		},
	}
	if !p.LastTweetAt.IsZero() {
		u.LastTweetAt = p.LastTweetAt.Format(timeFormat)
	}
	return u
}

func decodeUser(u userJSON) (twitter.Profile, error) {
	created, err := time.Parse(timeFormat, u.CreatedAt)
	if err != nil {
		return twitter.Profile{}, fmt.Errorf("parsing created_at: %w", err)
	}
	p := twitter.Profile{
		User: twitter.User{
			ID:                  twitter.UserID(u.ID),
			ScreenName:          u.ScreenName,
			Name:                u.Name,
			CreatedAt:           created,
			Bio:                 u.Description,
			Location:            u.Location,
			URL:                 u.URL,
			DefaultProfileImage: u.DefaultProfileImage,
			Protected:           u.Protected,
			Verified:            u.Verified,
		},
		FollowersCount: u.FollowersCount,
		FriendsCount:   u.FriendsCount,
		StatusesCount:  u.StatusesCount,
	}
	if u.LastTweetAt != "" {
		last, err := time.Parse(timeFormat, u.LastTweetAt)
		if err != nil {
			return twitter.Profile{}, fmt.Errorf("parsing last_tweet_at: %w", err)
		}
		p.LastTweetAt = last
	}
	if u.Behavior != nil {
		p.Behavior = twitter.Behavior{
			RetweetRatio:   u.Behavior.RetweetRatio,
			LinkRatio:      u.Behavior.LinkRatio,
			SpamRatio:      u.Behavior.SpamRatio,
			DuplicateRatio: u.Behavior.DuplicateRatio,
		}
	}
	return p, nil
}

func encodeTweet(tw twitter.Tweet) tweetJSON {
	return tweetJSON{
		ID:        int64(tw.ID),
		AuthorID:  int64(tw.Author),
		CreatedAt: tw.CreatedAt.Format(timeFormat),
		Text:      tw.Text,
		IsRetweet: tw.IsRetweet,
		HasLink:   tw.HasLink,
		IsReply:   tw.IsReply,
		Mentions:  tw.Mentions,
		Hashtags:  tw.Hashtags,
		Source:    tw.Source,
	}
}

func decodeTweet(t tweetJSON) (twitter.Tweet, error) {
	created, err := time.Parse(timeFormat, t.CreatedAt)
	if err != nil {
		return twitter.Tweet{}, fmt.Errorf("parsing tweet created_at: %w", err)
	}
	return twitter.Tweet{
		ID:        twitter.TweetID(t.ID),
		Author:    twitter.UserID(t.AuthorID),
		CreatedAt: created,
		Text:      t.Text,
		IsRetweet: t.IsRetweet,
		HasLink:   t.HasLink,
		IsReply:   t.IsReply,
		Mentions:  t.Mentions,
		Hashtags:  t.Hashtags,
		Source:    t.Source,
	}, nil
}

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
// shared HTTP instrumentation around every route (plane "api"): per-endpoint
// latency histograms and status-class counters in reg, plus 429 throttle
// counters fed from gate() and the limiter's rejection/backoff totals. With
// a nil registry the routes are mounted bare — no wrapper on the request
// path, no counters.
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
		h := http.Handler(rt.handler)
		if reg != nil {
			h = plane.WrapFunc(rt.endpoint, rt.handler)
			s.throttled[rt.endpoint] = reg.Counter("ratelimit_throttled_total",
				"Requests rejected with 429 by the endpoint budget.",
				metrics.L("plane", "api"), metrics.L("endpoint", rt.endpoint))
		}
		s.mux.Handle(rt.path, h)
	}
	return s
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
// false after writing a 429 if the budget is exhausted.
func (s *Server) gate(w http.ResponseWriter, r *http.Request, endpoint string) bool {
	key := endpoint + "|" + tokenOf(r)
	if _, ok := s.limiter.LimitFor(key); !ok {
		if lim, exists := s.limits[endpoint]; exists {
			s.limiter.SetLimit(key, lim)
		}
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

func writeError(w http.ResponseWriter, status, code int, msg string) {
	buf := responseBuffers.Get().(*bytes.Buffer)
	buf.Reset()
	_ = json.NewEncoder(buf).Encode(errorJSON{Errors: []errorItemJSON{{Code: code, Message: msg}}})
	writeBuffered(w, status, buf)
}

func writeJSON(w http.ResponseWriter, v any) {
	buf := responseBuffers.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		writeError(w, http.StatusInternalServerError, 131, err.Error())
		return
	}
	writeBuffered(w, http.StatusOK, buf)
}

// resolveUser supports both user_id and screen_name parameters.
func (s *Server) resolveUser(r *http.Request) (twitter.UserID, error) {
	q := r.URL.Query()
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

func (s *Server) handleIDsEndpoint(w http.ResponseWriter, r *http.Request, endpoint string,
	fetch func(twitter.UserID, int64) (IDPage, error)) {
	if !s.gate(w, r, endpoint) {
		return
	}
	id, err := s.resolveUser(r)
	if err != nil {
		writeError(w, http.StatusNotFound, 34, err.Error())
		return
	}
	cursor := CursorFirst
	if raw := r.URL.Query().Get("cursor"); raw != "" {
		cursor, err = strconv.ParseInt(raw, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, 44, "bad cursor")
			return
		}
	}
	page, err := fetch(id, cursor)
	if errors.Is(err, ErrBadCursor) {
		writeError(w, http.StatusBadRequest, 44, err.Error())
		return
	}
	if err != nil {
		writeError(w, http.StatusNotFound, 34, err.Error())
		return
	}
	writeIDPage(w, page)
}

func (s *Server) handleFollowerIDs(w http.ResponseWriter, r *http.Request) {
	s.handleIDsEndpoint(w, r, EndpointFollowerIDs, s.svc.FollowerIDs)
}

func (s *Server) handleFriendIDs(w http.ResponseWriter, r *http.Request) {
	s.handleIDsEndpoint(w, r, EndpointFriendIDs, s.svc.FriendIDs)
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
	parts := strings.Split(raw, ",")
	if len(parts) > UsersLookupBatchSize {
		writeError(w, http.StatusBadRequest, 44, "too many ids")
		return
	}
	ids := make([]twitter.UserID, 0, len(parts))
	for _, part := range parts {
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
	out := make([]userJSON, len(profiles))
	for i, p := range profiles {
		out[i] = encodeUser(p)
	}
	writeJSON(w, out)
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
	writeJSON(w, encodeUser(p))
}

func (s *Server) handleUserTimeline(w http.ResponseWriter, r *http.Request) {
	if !s.gate(w, r, EndpointUserTimeline) {
		return
	}
	id, err := s.resolveUser(r)
	if err != nil {
		writeError(w, http.StatusNotFound, 34, err.Error())
		return
	}
	count := TimelinePageSize
	if raw := r.URL.Query().Get("count"); raw != "" {
		count, err = strconv.Atoi(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, 44, "bad count")
			return
		}
	}
	var maxID twitter.TweetID
	if raw := r.URL.Query().Get("max_id"); raw != "" {
		v, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, 44, "bad max_id")
			return
		}
		maxID = twitter.TweetID(v)
	}
	tweets, err := s.svc.UserTimeline(id, count, maxID)
	if err != nil {
		writeError(w, http.StatusNotFound, 34, err.Error())
		return
	}
	out := make([]tweetJSON, len(tweets))
	for i, tw := range tweets {
		out[i] = encodeTweet(tw)
	}
	writeJSON(w, out)
}

package twitterapi

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"fakeproject/internal/simclock"
	"fakeproject/internal/twitter"
)

// HTTPClient implements Client over a real HTTP connection to a Server,
// honouring 429 rate-limit back-offs on the supplied clock. When the server
// runs in-process on the same virtual clock (as in the test suite and
// cmd/twitterd demos), a rate-limit sleep advances the shared clock and the
// retry succeeds immediately in real time.
type HTTPClient struct {
	base   string
	token  string
	clock  simclock.Clock
	client *http.Client
	// maxRetries bounds consecutive 429 retries per logical call.
	maxRetries int

	mu    sync.Mutex
	calls map[string]int
	total int
}

var _ Client = (*HTTPClient)(nil)

// sharedTransport is the connection pool behind every HTTPClient. The
// default transport keeps only two idle connections per host, which under a
// worker pool (auditd's remote backend) or the open-loop load generator
// means most requests pay a fresh TCP handshake; a generous per-host idle
// pool keeps the connections alive instead.
var sharedTransport = &http.Transport{
	MaxIdleConns:        256,
	MaxIdleConnsPerHost: 256,
	IdleConnTimeout:     90 * time.Second,
}

// NewHTTPClient creates a client for the API server at base (e.g.
// "http://127.0.0.1:8080"), authenticating with the given bearer token.
func NewHTTPClient(base, token string, clock simclock.Clock) *HTTPClient {
	return &HTTPClient{
		base:       strings.TrimSuffix(base, "/"),
		token:      token,
		clock:      clock,
		client:     &http.Client{Timeout: 30 * time.Second, Transport: sharedTransport},
		maxRetries: 100,
		calls:      make(map[string]int),
	}
}

// defaultRetryAfter is the back-off used when a 429 carries no usable
// rate-limit headers at all.
const defaultRetryAfter = 60 * time.Second

// resetSkewTolerance bounds how far from now an X-Rate-Limit-Reset stamp is
// still trusted. Within it, a past stamp means "the window boundary already
// passed, retry now" and a future stamp is slept to. Beyond it — in either
// direction — the server is on a different clock (a virtual-epoch server
// behind a real-clock client, or vice versa), absolute times are
// meaningless, and only the relative Retry-After can be honoured.
const resetSkewTolerance = time.Hour

// retryBackoff computes how long to wait before retrying a 429, preferring
// the absolute X-Rate-Limit-Reset stamp over the relative Retry-After.
//
// The absolute form is what makes concurrent callers back off to the window
// boundary instead of past it: a relative Retry-After is computed at
// rejection time, so a sleeper that starts late — or a second goroutine
// whose sibling already slept the shared virtual clock across the boundary
// — over-sleeps by up to a whole window per waiter. Against the reset
// stamp, every waiter sleeps exactly to the boundary, and one whose clock
// is already past it retries immediately.
func retryBackoff(h http.Header, now time.Time) time.Duration {
	if raw := h.Get("X-Rate-Limit-Reset"); raw != "" {
		if epoch, err := strconv.ParseInt(raw, 10, 64); err == nil {
			switch d := time.Unix(epoch, 0).Sub(now); {
			case d > 0 && d <= resetSkewTolerance:
				return d
			case d <= 0 && d > -resetSkewTolerance:
				return 0
			}
			// Stamp far from now in either direction: clock domains
			// differ, fall through to the relative header.
		}
	}
	if secs, err := strconv.Atoi(h.Get("Retry-After")); err == nil && secs > 0 {
		return time.Duration(secs) * time.Second
	}
	return defaultRetryAfter
}

func (c *HTTPClient) count(endpoint string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls[endpoint]++
	c.total++
}

// get performs a GET with 429 retry handling and decodes JSON into out.
func (c *HTTPClient) get(endpoint, path string, params url.Values, out any) error {
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest(http.MethodGet, c.base+path+"?"+params.Encode(), nil)
		if err != nil {
			return fmt.Errorf("building request: %w", err)
		}
		req.Header.Set("Authorization", "Bearer "+c.token)
		resp, err := c.client.Do(req)
		if err != nil {
			return fmt.Errorf("%s: %w", endpoint, err)
		}
		body, err := io.ReadAll(resp.Body)
		closeErr := resp.Body.Close()
		if err != nil {
			return fmt.Errorf("%s: reading body: %w", endpoint, err)
		}
		if closeErr != nil {
			return fmt.Errorf("%s: closing body: %w", endpoint, closeErr)
		}
		c.count(endpoint)
		switch {
		case resp.StatusCode == http.StatusOK:
			if err := json.Unmarshal(body, out); err != nil {
				return fmt.Errorf("%s: decoding response: %w", endpoint, err)
			}
			return nil
		case resp.StatusCode == http.StatusTooManyRequests && attempt < c.maxRetries:
			if wait := retryBackoff(resp.Header, c.clock.Now()); wait > 0 {
				c.clock.Sleep(wait)
			}
		default:
			var apiErr errorJSON
			if json.Unmarshal(body, &apiErr) == nil && len(apiErr.Errors) > 0 {
				return fmt.Errorf("%s: HTTP %d: %s", endpoint, resp.StatusCode, apiErr.Errors[0].Message)
			}
			return fmt.Errorf("%s: HTTP %d", endpoint, resp.StatusCode)
		}
	}
}

// UserByScreenName implements Client.
func (c *HTTPClient) UserByScreenName(name string) (twitter.Profile, error) {
	params := url.Values{"screen_name": {name}}
	var u userJSON
	if err := c.get(EndpointUsersShow, "/1.1/users/show.json", params, &u); err != nil {
		return twitter.Profile{}, err
	}
	return decodeUser(u)
}

// FollowerIDs implements Client.
func (c *HTTPClient) FollowerIDs(target twitter.UserID, cursor int64) (IDPage, error) {
	return c.idsCall(EndpointFollowerIDs, "/1.1/followers/ids.json", target, cursor)
}

// FriendIDs implements Client.
func (c *HTTPClient) FriendIDs(id twitter.UserID, cursor int64) (IDPage, error) {
	return c.idsCall(EndpointFriendIDs, "/1.1/friends/ids.json", id, cursor)
}

func (c *HTTPClient) idsCall(endpoint, path string, id twitter.UserID, cursor int64) (IDPage, error) {
	params := url.Values{
		"user_id": {strconv.FormatInt(int64(id), 10)},
		"cursor":  {strconv.FormatInt(cursor, 10)},
	}
	var page idPageJSON
	if err := c.get(endpoint, path, params, &page); err != nil {
		return IDPage{}, err
	}
	ids := make([]twitter.UserID, len(page.IDs))
	for i, v := range page.IDs {
		ids[i] = twitter.UserID(v)
	}
	return IDPage{IDs: ids, NextCursor: page.NextCursor}, nil
}

// UsersLookup implements Client.
func (c *HTTPClient) UsersLookup(ids []twitter.UserID) ([]twitter.Profile, error) {
	if len(ids) > UsersLookupBatchSize {
		return nil, fmt.Errorf("%w: %d", ErrBatchTooLarge, len(ids))
	}
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = strconv.FormatInt(int64(id), 10)
	}
	params := url.Values{"user_id": {strings.Join(parts, ",")}}
	var users []userJSON
	if err := c.get(EndpointUsersLookup, "/1.1/users/lookup.json", params, &users); err != nil {
		return nil, err
	}
	out := make([]twitter.Profile, 0, len(users))
	for _, u := range users {
		p, err := decodeUser(u)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// ScanProfiles implements Client over the wire: UsersLookup per 100 ids,
// each decoded profile reduced to its view.
func (c *HTTPClient) ScanProfiles(ids []twitter.UserID, fn func(twitter.ProfileView)) error {
	return ScanLookups(c.UsersLookup, ids, fn)
}

// UserTimeline implements Client.
func (c *HTTPClient) UserTimeline(id twitter.UserID, count int, maxID twitter.TweetID) ([]twitter.Tweet, error) {
	params := url.Values{
		"user_id": {strconv.FormatInt(int64(id), 10)},
		"count":   {strconv.Itoa(count)},
	}
	if maxID != 0 {
		params.Set("max_id", strconv.FormatInt(int64(maxID), 10))
	}
	var tweets []tweetJSON
	if err := c.get(EndpointUserTimeline, "/1.1/statuses/user_timeline.json", params, &tweets); err != nil {
		return nil, err
	}
	out := make([]twitter.Tweet, 0, len(tweets))
	for _, t := range tweets {
		tw, err := decodeTweet(t)
		if err != nil {
			return nil, err
		}
		out = append(out, tw)
	}
	return out, nil
}

// Calls implements Client.
func (c *HTTPClient) Calls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// CallsByEndpoint implements Client.
func (c *HTTPClient) CallsByEndpoint() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int, len(c.calls))
	for k, v := range c.calls {
		out[k] = v
	}
	return out
}

// The wire shapes, as this client decodes them. The server writes the same
// bytes without them (encode.go).

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

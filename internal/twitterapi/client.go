package twitterapi

import (
	"fmt"
	"sync"
	"time"

	"fakeproject/internal/drand"
	"fakeproject/internal/ratelimit"
	"fakeproject/internal/simclock"
	"fakeproject/internal/twitter"
)

// Client is the API surface the analytics engines consume. Implementations
// account every API call and model its cost in (virtual) time, because the
// paper's Table II is precisely a measurement of that cost.
type Client interface {
	// UserByScreenName resolves a profile by screen name (users/show).
	UserByScreenName(name string) (twitter.Profile, error)
	// FollowerIDs fetches one newest-first page of follower IDs.
	FollowerIDs(target twitter.UserID, cursor int64) (IDPage, error)
	// FriendIDs fetches one page of the account's friend list.
	FriendIDs(id twitter.UserID, cursor int64) (IDPage, error)
	// UsersLookup fetches up to 100 profiles in one call.
	UsersLookup(ids []twitter.UserID) ([]twitter.Profile, error)
	// ScanProfiles visits the profile attributes of any number of accounts
	// at the cost of the ⌈len(ids)/100⌉ users/lookup calls that would fetch
	// them: fn is called once per known id, in input order (unknown ids are
	// skipped, as users/lookup drops them), and not before every one of
	// those calls is paid for — a consumer that reads the clock at its
	// first visit reads it where it stood when the profiles were in hand.
	// It is how an audit reads its sample: the analytics test a profile's
	// strings for emptiness only, so nothing here promises them. On error
	// fn has not run.
	ScanProfiles(ids []twitter.UserID, fn func(twitter.ProfileView)) error
	// UserTimeline fetches up to count recent tweets in one call (≤200),
	// restricted to IDs <= maxID when maxID is non-zero.
	UserTimeline(id twitter.UserID, count int, maxID twitter.TweetID) ([]twitter.Tweet, error)
	// Calls reports the number of API calls performed so far.
	Calls() int
	// CallsByEndpoint reports per-endpoint call counts.
	CallsByEndpoint() map[string]int
}

// ClientConfig tunes a client's cost model.
type ClientConfig struct {
	// PerCallLatency is the mean simulated cost of one API call (network
	// round trip + the consumer's own processing). Zero means free calls.
	PerCallLatency time.Duration
	// LatencyJitter is the relative jitter applied to PerCallLatency,
	// e.g. 0.2 draws uniformly from [0.8L, 1.2L].
	LatencyJitter float64
	// Tokens is how many API tokens the consumer spreads calls over.
	// Twitter rate limits are per token, so budgets scale linearly.
	// Zero means one token.
	Tokens int
	// Seed drives the jitter stream.
	Seed uint64
}

func (c ClientConfig) tokens() int {
	if c.Tokens <= 0 {
		return 1
	}
	return c.Tokens
}

// DirectClient calls the Service in-process, enforcing Table I budgets and
// advancing its clock by the rate-limit waits and per-call latencies.
// It is safe for concurrent use, though the virtual-clock cost model assumes
// the caller issues calls sequentially (which all the paper's pipelines do).
type DirectClient struct {
	svc     *Service
	clock   simclock.Clock
	limiter *ratelimit.Limiter
	cfg     ClientConfig

	mu    sync.Mutex
	src   *drand.Source
	calls map[string]int
	total int
}

var _ Client = (*DirectClient)(nil)

// NewDirectClient builds a client over the service with its own rate-limit
// state (its own tokens), using Table I budgets scaled by cfg.Tokens.
func NewDirectClient(svc *Service, clock simclock.Clock, cfg ClientConfig) *DirectClient {
	limits := DefaultLimits()
	for k, lim := range limits {
		lim.Requests *= cfg.tokens()
		limits[k] = lim
	}
	return &DirectClient{
		svc:     svc,
		clock:   clock,
		limiter: ratelimit.New(clock, limits),
		cfg:     cfg,
		src:     drand.New(cfg.Seed),
		calls:   make(map[string]int),
	}
}

// pay books one rate-limit slot and simulates the call's latency.
func (c *DirectClient) pay(endpoint string) {
	wait := c.limiter.Reserve(endpoint)
	if wait > 0 {
		c.clock.Sleep(wait)
	}
	lat := c.cfg.PerCallLatency
	if lat > 0 && c.cfg.LatencyJitter > 0 {
		c.mu.Lock()
		f := 1 + c.cfg.LatencyJitter*(2*c.src.Float64()-1)
		c.mu.Unlock()
		lat = time.Duration(float64(lat) * f)
	}
	if lat > 0 {
		c.clock.Sleep(lat)
	}
	c.mu.Lock()
	c.calls[endpoint]++
	c.total++
	c.mu.Unlock()
}

// UserByScreenName implements Client.
func (c *DirectClient) UserByScreenName(name string) (twitter.Profile, error) {
	c.pay(EndpointUsersShow)
	return c.svc.UsersShow(name)
}

// FollowerIDs implements Client.
func (c *DirectClient) FollowerIDs(target twitter.UserID, cursor int64) (IDPage, error) {
	c.pay(EndpointFollowerIDs)
	return c.svc.FollowerIDs(target, cursor)
}

// FriendIDs implements Client.
func (c *DirectClient) FriendIDs(id twitter.UserID, cursor int64) (IDPage, error) {
	c.pay(EndpointFriendIDs)
	return c.svc.FriendIDs(id, cursor)
}

// UsersLookup implements Client.
func (c *DirectClient) UsersLookup(ids []twitter.UserID) ([]twitter.Profile, error) {
	c.pay(EndpointUsersLookup)
	return c.svc.UsersLookup(ids)
}

// ScanProfiles implements Client. It debits users/lookup once per 100 ids —
// the same reservations, sleeps and call counts as that many UsersLookup
// calls, Table I and II being the model — and only then reads the store,
// as views: nothing is materialised for a consumer in the same process.
// Paying first keeps an engine's observation instant (read at the first
// visit) where it was when profiles were fetched before they were judged.
func (c *DirectClient) ScanProfiles(ids []twitter.UserID, fn func(twitter.ProfileView)) error {
	for start := 0; start < len(ids); start += UsersLookupBatchSize {
		c.pay(EndpointUsersLookup)
	}
	c.svc.store.ScanProfiles(ids, fn)
	return nil
}

// UserTimeline implements Client.
func (c *DirectClient) UserTimeline(id twitter.UserID, count int, maxID twitter.TweetID) ([]twitter.Tweet, error) {
	c.pay(EndpointUserTimeline)
	return c.svc.UserTimeline(id, count, maxID)
}

// Calls implements Client.
func (c *DirectClient) Calls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// CallsByEndpoint implements Client.
func (c *DirectClient) CallsByEndpoint() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int, len(c.calls))
	for k, v := range c.calls {
		out[k] = v
	}
	return out
}

// Clock returns the clock driving this client's cost model.
func (c *DirectClient) Clock() simclock.Clock { return c.clock }

// --- High-level helpers shared by every consumer of a Client. ---

// AllFollowerIDs pages through the complete follower list of target,
// newest first — the Fake Project engine's first step ("it requests the
// complete list of followers").
//
// Cursors are edge-anchored, so the crawl is churn-proof: followers who
// join after a page was served are not revisited (no duplicates), edges
// that survive the whole crawl are never skipped, and a purge racing the
// crawl ends it with a short final page instead of an error. The result is
// a consistent newest-first sweep of the list as it stood when each page
// was cut — the only coherent answer a 27-day crawl of a moving list can
// give.
func AllFollowerIDs(c Client, target twitter.UserID) ([]twitter.UserID, error) {
	var out []twitter.UserID
	cursor := CursorFirst
	for {
		page, err := c.FollowerIDs(target, cursor)
		if err != nil {
			return nil, fmt.Errorf("paging followers: %w", err)
		}
		out = append(out, page.IDs...)
		if page.NextCursor == CursorDone {
			return out, nil
		}
		cursor = page.NextCursor
	}
}

// FollowerIDsUpTo pages through at most max newest follower IDs — the
// commercial tools' crawling scheme ("the followers taken into consideration
// are just the latest ones to have joined"). Like AllFollowerIDs, the
// anchored cursors make the window crawl churn-proof.
func FollowerIDsUpTo(c Client, target twitter.UserID, max int) ([]twitter.UserID, error) {
	var out []twitter.UserID
	cursor := CursorFirst
	for len(out) < max {
		page, err := c.FollowerIDs(target, cursor)
		if err != nil {
			return nil, fmt.Errorf("paging followers: %w", err)
		}
		out = append(out, page.IDs...)
		if page.NextCursor == CursorDone {
			break
		}
		cursor = page.NextCursor
	}
	if len(out) > max {
		out = out[:max]
	}
	return out, nil
}

// ScanLookups is ScanProfiles for a client that only has the wire: one
// lookup call per 100 ids, then every materialised profile reduced to its
// view. All batches are fetched before the first visit, so the visits begin
// when the whole cost is paid, as with a DirectClient. HTTPClient scans this
// way, and so does any Client that wraps another's UsersLookup (fault
// injectors, test fakes).
func ScanLookups(lookup func([]twitter.UserID) ([]twitter.Profile, error), ids []twitter.UserID, fn func(twitter.ProfileView)) error {
	profiles := make([]twitter.Profile, 0, len(ids))
	for start := 0; start < len(ids); start += UsersLookupBatchSize {
		end := min(start+UsersLookupBatchSize, len(ids))
		batch, err := lookup(ids[start:end])
		if err != nil {
			return fmt.Errorf("users/lookup batch at %d: %w", start, err)
		}
		profiles = append(profiles, batch...)
	}
	for i := range profiles {
		fn(profiles[i].View())
	}
	return nil
}

// FullTimeline pages through up to the 3,200 retrievable tweets of an
// account (or fewer if max < 3200), using max_id pagination.
func FullTimeline(c Client, id twitter.UserID, max int) ([]twitter.Tweet, error) {
	if max <= 0 || max > TimelineCap {
		max = TimelineCap
	}
	var out []twitter.Tweet
	var maxID twitter.TweetID
	for len(out) < max {
		count := max - len(out)
		if count > TimelinePageSize {
			count = TimelinePageSize
		}
		page, err := c.UserTimeline(id, count, maxID)
		if err != nil {
			return nil, fmt.Errorf("user_timeline page: %w", err)
		}
		if len(page) == 0 {
			break
		}
		out = append(out, page...)
		maxID = page[len(page)-1].ID - 1
		if maxID <= 0 {
			break
		}
	}
	return out, nil
}

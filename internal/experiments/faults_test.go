package experiments

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"fakeproject/internal/population"
	"fakeproject/internal/simclock"
	"fakeproject/internal/tools/socialbakers"
	"fakeproject/internal/tools/statuspeople"
	"fakeproject/internal/tools/twitteraudit"
	"fakeproject/internal/twitter"
	"fakeproject/internal/twitterapi"
)

// faultyClient wraps a Client and fails every call once armed.
type faultyClient struct {
	inner twitterapi.Client

	mu    sync.Mutex
	calls int
	// failFrom: calls with ordinal >= failFrom error out (0 = never).
	failFrom int
}

var _ twitterapi.Client = (*faultyClient)(nil)

var errInjected = errors.New("injected backend failure")

func (f *faultyClient) trip() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	if f.failFrom > 0 && f.calls >= f.failFrom {
		return errInjected
	}
	return nil
}

func (f *faultyClient) UserByScreenName(name string) (twitter.Profile, error) {
	if err := f.trip(); err != nil {
		return twitter.Profile{}, err
	}
	return f.inner.UserByScreenName(name)
}

func (f *faultyClient) FollowerIDs(target twitter.UserID, cursor int64) (twitterapi.IDPage, error) {
	if err := f.trip(); err != nil {
		return twitterapi.IDPage{}, err
	}
	return f.inner.FollowerIDs(target, cursor)
}

func (f *faultyClient) FriendIDs(id twitter.UserID, cursor int64) (twitterapi.IDPage, error) {
	if err := f.trip(); err != nil {
		return twitterapi.IDPage{}, err
	}
	return f.inner.FriendIDs(id, cursor)
}

func (f *faultyClient) UsersLookup(ids []twitter.UserID) ([]twitter.Profile, error) {
	if err := f.trip(); err != nil {
		return nil, err
	}
	return f.inner.UsersLookup(ids)
}

// ScanProfiles goes through the wrapper's own UsersLookup, so every batch
// can trip.
func (f *faultyClient) ScanProfiles(ids []twitter.UserID, fn func(twitter.ProfileView)) error {
	return twitterapi.ScanLookups(f.UsersLookup, ids, fn)
}

func (f *faultyClient) UserTimeline(id twitter.UserID, count int, maxID twitter.TweetID) ([]twitter.Tweet, error) {
	if err := f.trip(); err != nil {
		return nil, err
	}
	return f.inner.UserTimeline(id, count, maxID)
}

func (f *faultyClient) Calls() int { return f.inner.Calls() }

func (f *faultyClient) CallsByEndpoint() map[string]int { return f.inner.CallsByEndpoint() }

// TestToolsSurviveMidCrawlFailures verifies that every analytics engine
// surfaces mid-crawl API failures as errors (never a fabricated report),
// at every stage of its pipeline: resolution, ids paging, lookups.
func TestToolsSurviveMidCrawlFailures(t *testing.T) {
	clock := simclock.NewVirtualAtEpoch()
	store := twitter.NewStore(clock, 41)
	gen := population.NewGenerator(store, 41)
	if _, err := gen.BuildTarget(population.TargetSpec{
		ScreenName: "subject",
		Followers:  8000,
	}); err != nil {
		t.Fatal(err)
	}
	svc := twitterapi.NewService(store)

	build := func(failFrom int) *faultyClient {
		return &faultyClient{
			inner:    twitterapi.NewDirectClient(svc, clock, twitterapi.ClientConfig{Tokens: 64}),
			failFrom: failFrom,
		}
	}
	// Fail at the 1st, 2nd and 5th API call: resolution, first page,
	// mid-lookup.
	for _, failAt := range []int{1, 2, 5} {
		fc := build(failAt)
		sp := statuspeople.New(fc, clock, statuspeople.Current())
		if _, err := sp.Audit("subject"); !errors.Is(err, errInjected) {
			t.Fatalf("statuspeople failAt=%d: err = %v, want injected", failAt, err)
		}

		sb := socialbakers.New(build(failAt), clock)
		if _, err := sb.Audit("subject"); !errors.Is(err, errInjected) {
			t.Fatalf("socialbakers failAt=%d: err = %v, want injected", failAt, err)
		}

		ta := twitteraudit.New(build(failAt), clock, 1)
		if _, err := ta.Audit("subject"); !errors.Is(err, errInjected) {
			t.Fatalf("twitteraudit failAt=%d: err = %v, want injected", failAt, err)
		}
	}
}

// TestErrorMessagesNameTheStage checks the wrapped errors identify what
// failed (the Uber guide's "handle errors once" with context).
func TestErrorMessagesNameTheStage(t *testing.T) {
	clock := simclock.NewVirtualAtEpoch()
	store := twitter.NewStore(clock, 42)
	gen := population.NewGenerator(store, 42)
	if _, err := gen.BuildTarget(population.TargetSpec{
		ScreenName: "subject", Followers: 3000,
	}); err != nil {
		t.Fatal(err)
	}
	svc := twitterapi.NewService(store)
	faulty := &faultyClient{
		inner:    twitterapi.NewDirectClient(svc, clock, twitterapi.ClientConfig{Tokens: 64}),
		failFrom: 2, // the ids paging stage
	}
	sp := statuspeople.New(faulty, clock, statuspeople.Current())
	_, err := sp.Audit("subject")
	if err == nil || !strings.Contains(err.Error(), "follower window") {
		t.Fatalf("error should name the failed stage: %v", err)
	}
}

package experiments

import (
	"fmt"
	"math"
	"time"

	"fakeproject/internal/population"
	"fakeproject/internal/simclock"
	"fakeproject/internal/twitter"
	"fakeproject/internal/twitterapi"
)

// CrawlEstimate is the analytic crawl-cost model behind the paper's
// "collecting data of accounts with a very large numbers of followers can
// be extremely time consuming. For example ... President Obama ... required
// a total time of around 27 days."
type CrawlEstimate struct {
	Followers int
	// IDsCalls and LookupCalls are the API call counts of the two crawl
	// phases (complete follower list + profile of every follower).
	IDsCalls    int
	LookupCalls int
	// Duration is the rate-limit-bound crawl time with one API token.
	Duration time.Duration
}

// EstimateFullCrawl computes the time to fetch the complete follower list
// AND every follower's profile with `tokens` API tokens under the Table I
// budgets. The two phases run sequentially, as the Fake Project crawler
// did.
func EstimateFullCrawl(followers, tokens int) CrawlEstimate {
	if tokens <= 0 {
		tokens = 1
	}
	idsCalls := ceilDiv(followers, twitterapi.FollowerIDsPageSize)
	lookupCalls := ceilDiv(followers, twitterapi.UsersLookupBatchSize)
	// k calls on a budget of r per window finish after ceil(k/r)-1 full
	// window waits (the first window is free).
	idsWindows := ceilDiv(idsCalls, 15*tokens) - 1
	lookupWindows := ceilDiv(lookupCalls, 180*tokens) - 1
	if idsWindows < 0 {
		idsWindows = 0
	}
	if lookupWindows < 0 {
		lookupWindows = 0
	}
	return CrawlEstimate{
		Followers:   followers,
		IDsCalls:    idsCalls,
		LookupCalls: lookupCalls,
		Duration:    time.Duration(idsWindows+lookupWindows) * twitterapi.RateWindow,
	}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// Days returns the estimate in days.
func (e CrawlEstimate) Days() float64 { return e.Duration.Hours() / 24 }

// CrawlValidation compares the analytic model against an actual simulated
// crawl at a smaller scale.
type CrawlValidation struct {
	Followers   int
	Analytic    time.Duration
	Simulated   time.Duration
	RelativeErr float64
}

// ValidateCrawlModel builds a fresh target of the given size and actually
// crawls it (ids + all profiles) through the rate-limited client on the
// virtual clock, then compares with the analytic estimate.
func (s *Simulation) ValidateCrawlModel(followers int) (CrawlValidation, error) {
	name := s.nextProbeName("crawl_probe")
	target, err := s.Gen.BuildTarget(population.TargetSpec{
		ScreenName: name,
		Followers:  followers,
		Layout:     population.Layout{{Width: 0, Mix: population.Mix{Genuine: 1}}},
	})
	if err != nil {
		return CrawlValidation{}, fmt.Errorf("building crawl probe: %w", err)
	}
	client := twitterapi.NewDirectClient(s.Service, s.Clock, twitterapi.ClientConfig{Tokens: 1})
	sw := simclock.NewStopwatch(s.Clock)
	ids, err := twitterapi.AllFollowerIDs(client, target)
	if err != nil {
		return CrawlValidation{}, fmt.Errorf("crawling ids: %w", err)
	}
	if err := client.ScanProfiles(ids, func(twitter.ProfileView) {}); err != nil {
		return CrawlValidation{}, fmt.Errorf("crawling profiles: %w", err)
	}
	simulated := sw.Elapsed()
	analytic := EstimateFullCrawl(followers, 1).Duration
	rel := 0.0
	if simulated > 0 {
		rel = math.Abs(float64(analytic-simulated)) / float64(simulated)
	}
	return CrawlValidation{
		Followers:   followers,
		Analytic:    analytic,
		Simulated:   simulated,
		RelativeErr: rel,
	}, nil
}

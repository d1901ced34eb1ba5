// Package twitteraudit simulates Twitteraudit.com as surveyed in
// Section II-C: "taking a random sample of 5K Twitter followers", each
// follower receives a score based on i) the number of its tweets, ii) the
// date of the last tweet, and iii) the ratio of followers to friends, on a
// five-point scale ("the three criteria used to evaluate the score can sum
// up to five"). The tool has no inactive class; followers are either fake
// or real. It also produces the audit's three chart series (target verdict,
// quality score per follower, real points per follower).
package twitteraudit

import (
	"fmt"
	"math"
	"time"

	"fakeproject/internal/core"
	"fakeproject/internal/drand"
	"fakeproject/internal/sampling"
	"fakeproject/internal/simclock"
	"fakeproject/internal/twitter"
	"fakeproject/internal/twitterapi"
)

// SampleSize is the audit's sample: "a random sample of 5K Twitter
// followers". Because the API serves 5,000 IDs per page, the candidates are
// necessarily the newest 5,000 — the bias the paper demonstrates.
const SampleSize = 5000

// MaxScore is the five-point scale ceiling.
const MaxScore = 5.0

// realThreshold is the score below which a follower is ruled fake. The
// vendor never published the computation ("there are no details on how the
// score is computed"); this threshold and the component weights below are
// calibrated once so that the engine's verdicts on the archetype population
// track the paper's Table III Twitteraudit column.
const realThreshold = 1.45

// massFollowRatio is the followers/friends ratio under which an account is
// treated as a mass-follower: its ratio points vanish and its recency credit
// is capped (bots tweet constantly, so raw recency would whitewash them).
const massFollowRatio = 0.03

// Audit is the Twitteraudit engine. It implements core.Auditor.
type Audit struct {
	client twitterapi.Client
	clock  simclock.Clock
	// root is forked by screen name into each audit's sampling stream, so
	// a verdict does not depend on the audits that came before it.
	root *drand.Source

	// lastCharts holds the chart series of the most recent audit.
	lastCharts Charts
}

var _ core.Auditor = (*Audit)(nil)

// Charts is the audit's graphical output: the overall verdict plus the two
// per-follower distributions.
type Charts struct {
	// TargetVerdict is "real", "not sure" or "fake" for the audited
	// account itself.
	TargetVerdict string
	// QualityScores is the per-follower quality score histogram
	// (10 buckets over [0, 5]).
	QualityScores [10]int
	// RealPoints is the per-follower real-points histogram (6 buckets for
	// 0..5 points).
	RealPoints [6]int
}

// New creates the engine.
func New(client twitterapi.Client, clock simclock.Clock, seed uint64) *Audit {
	return &Audit{
		client: client,
		clock:  clock,
		root:   drand.New(seed).Fork("twitteraudit"),
	}
}

// Name implements core.Auditor.
func (a *Audit) Name() string { return "twitteraudit" }

// Score computes the follower's 0-5 quality score from the three published
// criteria.
func Score(p twitter.ProfileView, now time.Time) float64 {
	// i) number of tweets: log-scaled, 1.0 at 1,000+ tweets.
	tweets := math.Log10(float64(p.StatusesCount)+1) / 3
	if tweets > 1 {
		tweets = 1
	}
	// ii) date of the last tweet: up to 2 points, decaying with dormancy.
	var recency float64
	if p.LastTweetAt != 0 {
		ageDays := twitter.Since(now, p.LastTweetAt).Hours() / 24
		switch {
		case ageDays <= 30:
			recency = 2
		case ageDays <= 90:
			recency = 1.5
		case ageDays <= 180:
			recency = 0.75
		case ageDays <= 365:
			recency = 0.25
		}
	}
	// iii) ratio of followers to friends: up to 2 points, saturating at
	// parity. Mass-followers forfeit the ratio points and most of the
	// recency credit.
	ratio := p.FollowerFriendRatio()
	if ratio > 1 {
		ratio = 1
	}
	ratioPts := 2 * ratio
	if p.FriendsCount > 0 && p.FollowerFriendRatio() < massFollowRatio {
		ratioPts = 0
		if recency > 0.5 {
			recency = 0.5
		}
	}
	return tweets + recency + ratioPts
}

// IsFake applies the real/fake threshold to a follower's score.
func IsFake(p twitter.ProfileView, now time.Time) bool {
	return Score(p, now) < realThreshold
}

// LastCharts returns the chart series of the most recent audit.
func (a *Audit) LastCharts() Charts { return a.lastCharts }

// Audit implements core.Auditor.
func (a *Audit) Audit(screenName string) (core.Report, error) {
	sw := simclock.NewStopwatch(a.clock)
	callsBefore := a.client.Calls()

	target, err := a.client.UserByScreenName(screenName)
	if err != nil {
		return core.Report{}, fmt.Errorf("resolving %q: %w", screenName, err)
	}
	candidates, err := twitterapi.FollowerIDsUpTo(a.client, target.ID, SampleSize)
	if err != nil {
		return core.Report{}, fmt.Errorf("fetching followers of %q: %w", screenName, err)
	}
	idx := sampling.Uniform{}.Sample(len(candidates), SampleSize, a.root.Fork(screenName))
	sample := sampling.Select(candidates, idx)
	obs := simclock.Latch{Clock: a.clock}
	var charts Charts
	fake, real := 0, 0
	err = a.client.ScanProfiles(sample, func(v twitter.ProfileView) {
		score := Score(v, obs.Now())
		bucket := int(score / MaxScore * 10)
		if bucket > 9 {
			bucket = 9
		}
		charts.QualityScores[bucket]++
		points := int(score + 0.5)
		if points > 5 {
			points = 5
		}
		charts.RealPoints[points]++
		if score < realThreshold {
			fake++
		} else {
			real++
		}
	})
	if err != nil {
		return core.Report{}, fmt.Errorf("looking up sample of %q: %w", screenName, err)
	}
	now := obs.Now()
	total := fake + real
	fakePct := 0.0
	if total > 0 {
		fakePct = 100 * float64(fake) / float64(total)
	}
	switch {
	case fakePct >= 50:
		charts.TargetVerdict = "fake"
	case fakePct >= 25:
		charts.TargetVerdict = "not sure"
	default:
		charts.TargetVerdict = "real"
	}
	a.lastCharts = charts

	return core.Report{
		Tool:             a.Name(),
		Target:           target,
		NominalFollowers: target.FollowersCount,
		SampleSize:       total,
		Window:           SampleSize,
		HasInactiveClass: false,
		FakePct:          fakePct,
		GenuinePct:       100 - fakePct,
		Elapsed:          sw.Elapsed(),
		APICalls:         a.client.Calls() - callsBefore,
		AssessedAt:       now,
	}, nil
}

// Package socialbakers simulates the Socialbakers "Fake Follower Check
// (BETA)" as surveyed in Section II-B: the newest "up to 2000 followers per
// account" are assessed against eight published criteria with undisclosed
// point weights; accounts exceeding the point threshold are suspicious
// (fake), accounts matching the inactivity rules ("the account has posted
// less than 3 tweets; the last tweet is more than 90 days old") are
// inactive, and "accounts that are neither suspicious, nor inactive, are
// considered genuine".
package socialbakers

import (
	"fmt"
	"time"

	"fakeproject/internal/core"
	"fakeproject/internal/features"
	"fakeproject/internal/rules"
	"fakeproject/internal/simclock"
	"fakeproject/internal/twitter"
	"fakeproject/internal/twitterapi"
)

// Window is the tool's assessment window: "up to 2000 followers per
// account".
const Window = 2000

// DeclaredErrorMargin is the accuracy the vendor itself claims: "a small
// error margin of roughly 10-15%".
const DeclaredErrorMargin = 0.15

// DailyLimit is the vendor's usage cap: "the tool can be used ten times a
// day".
const DailyLimit = 10

// ErrDailyLimit reports the eleventh use within a day.
var ErrDailyLimit = fmt.Errorf("socialbakers: daily limit of %d checks reached", DailyLimit)

// Checker is the Socialbakers engine. It implements core.Auditor.
type Checker struct {
	client twitterapi.Client
	clock  simclock.Clock
	ruleSt rules.Set

	// daily usage accounting
	dayStart  time.Time
	usedToday int
	// EnforceDailyLimit turns the ten-a-day cap on (off by default so the
	// experiment harness can sweep 20 accounts; the paper worked around
	// the cap by spreading runs over days).
	EnforceDailyLimit bool
}

var _ core.Auditor = (*Checker)(nil)

// New creates the engine.
func New(client twitterapi.Client, clock simclock.Clock) *Checker {
	return &Checker{
		client:   client,
		clock:    clock,
		ruleSt:   rules.Socialbakers(),
		dayStart: clock.Now(),
	}
}

// Name implements core.Auditor.
func (c *Checker) Name() string { return "socialbakers" }

// Verdict is the engine's per-account decision.
type Verdict int

// Checker verdicts.
const (
	VerdictGenuine Verdict = iota + 1
	VerdictInactive
	VerdictSuspicious
)

// IsInactive applies the published inactivity rules: fewer than 3 tweets,
// or a last tweet older than 90 days.
func IsInactive(v twitter.ProfileView, now time.Time) bool {
	if v.StatusesCount < 3 {
		return true
	}
	return v.LastTweetAt != 0 && now.Sub(v.LastTweet()) > 90*24*time.Hour
}

// Classify applies the criteria points and inactivity rules to the account
// in ctx. The context is the caller's — the rules reach it through function
// values, so one built here would be a heap allocation per account.
func (c *Checker) Classify(ctx *features.Context) Verdict {
	// The published flow tests suspicious accounts against the inactivity
	// rules, so inactive wins and the criteria need not be scored for it.
	if IsInactive(ctx.Profile, ctx.Now) {
		return VerdictInactive
	}
	if c.ruleSt.Fake(ctx) {
		return VerdictSuspicious
	}
	return VerdictGenuine
}

// Audit implements core.Auditor.
func (c *Checker) Audit(screenName string) (core.Report, error) {
	if c.EnforceDailyLimit {
		now := c.clock.Now()
		if now.Sub(c.dayStart) >= 24*time.Hour {
			c.dayStart = now
			c.usedToday = 0
		}
		if c.usedToday >= DailyLimit {
			return core.Report{}, ErrDailyLimit
		}
		c.usedToday++
	}

	sw := simclock.NewStopwatch(c.clock)
	callsBefore := c.client.Calls()

	target, err := c.client.UserByScreenName(screenName)
	if err != nil {
		return core.Report{}, fmt.Errorf("resolving %q: %w", screenName, err)
	}
	// The newest up-to-2000 followers, assessed in full (no sub-sampling).
	candidates, err := twitterapi.FollowerIDsUpTo(c.client, target.ID, Window)
	if err != nil {
		return core.Report{}, fmt.Errorf("fetching follower window of %q: %w", screenName, err)
	}
	obs := simclock.Latch{Clock: c.clock}
	ctx := features.Context{}
	var counts core.VerdictCounts
	err = c.client.ScanProfiles(candidates, func(v twitter.ProfileView) {
		ctx.Profile, ctx.Now = v, obs.Now()
		switch c.Classify(&ctx) {
		case VerdictSuspicious:
			counts.Fake++
		case VerdictInactive:
			counts.Inactive++
		default:
			counts.Genuine++
		}
	})
	if err != nil {
		return core.Report{}, fmt.Errorf("looking up followers of %q: %w", screenName, err)
	}
	now := obs.Now()
	report := core.Report{
		Tool:             c.Name(),
		Target:           target,
		NominalFollowers: target.FollowersCount,
		SampleSize:       counts.Total(),
		Window:           Window,
		HasInactiveClass: true,
		Elapsed:          sw.Elapsed(),
		APICalls:         c.client.Calls() - callsBefore,
		AssessedAt:       now,
	}
	report.InactivePct, report.FakePct, report.GenuinePct = counts.Percentages()
	return report, nil
}

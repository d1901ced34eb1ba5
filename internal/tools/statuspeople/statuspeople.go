// Package statuspeople simulates the StatusPeople "Fakers" app as surveyed
// in Section II-A: a sample of follower records drawn from only the newest
// portion of the follower base, "assessed against a number of simple spam
// criteria" ("on a very basic level spam accounts tend to have few or no
// followers and few or no tweets. But in contrast they tend to follow a lot
// of other accounts").
//
// Three historical configurations are provided:
//
//   - Legacy (launch, Jul 2012): assesses 1,000 records across a follower
//     base of up to 100K.
//   - Current (post Oct 2012 API change): 700 records across up to 35K —
//     the configuration the paper measured.
//   - DeepDive (Nov 2013, internal-only): 33K records across the first
//     1.25M — the re-assessment that moved Obama from 70% to 45% fake.
package statuspeople

import (
	"fmt"
	"time"

	"fakeproject/internal/core"
	"fakeproject/internal/drand"
	"fakeproject/internal/sampling"
	"fakeproject/internal/simclock"
	"fakeproject/internal/twitter"
	"fakeproject/internal/twitterapi"
)

// Config selects a Fakers sampling configuration.
type Config struct {
	// Window is how many newest followers are fetched as candidates.
	Window int
	// Sample is how many of the fetched candidates are assessed.
	Sample int
	// Seed drives the sample draw.
	Seed uint64
}

// Legacy returns the launch configuration (1,000 across 100K).
func Legacy() Config { return Config{Window: 100000, Sample: 1000} }

// Current returns the post-October-2012 configuration (700 across 35K).
func Current() Config { return Config{Window: 35000, Sample: 700} }

// DeepDive returns the November-2013 internal configuration (33K across
// 1.25M).
func DeepDive() Config { return Config{Window: 1250000, Sample: 33000} }

// Fakers is the StatusPeople analytics engine. It implements core.Auditor.
type Fakers struct {
	client twitterapi.Client
	clock  simclock.Clock
	cfg    Config
	// root is forked by screen name into each audit's sampling stream, so
	// a verdict does not depend on the audits that came before it.
	root *drand.Source
}

var _ core.Auditor = (*Fakers)(nil)

// New creates the engine. A zero Window selects the Current sampling
// configuration while preserving the caller's Seed.
func New(client twitterapi.Client, clock simclock.Clock, cfg Config) *Fakers {
	if cfg.Window <= 0 {
		seed := cfg.Seed
		cfg = Current()
		cfg.Seed = seed
	}
	return &Fakers{
		client: client,
		clock:  clock,
		cfg:    cfg,
		root:   drand.New(cfg.Seed).Fork("statuspeople"),
	}
}

// Name implements core.Auditor.
func (f *Fakers) Name() string { return "statuspeople" }

// Verdict is the engine's per-account decision, exported for evaluation.
type Verdict int

// Fakers verdicts. StatusPeople checks the spam criteria *first*: an
// account that looks purchased is "fake" even if it is also dormant, which
// is why Fakers reports far more fakes than FC on abandoned follower bases
// (Table III) — while an account failing the spam check but not "engaging
// with the platform - producing and sharing content" is "inactive".
const (
	VerdictGood Verdict = iota + 1
	VerdictInactive
	VerdictFake
)

// Classify applies the simple spam criteria to one profile.
func (f *Fakers) Classify(p twitter.ProfileView, now time.Time) Verdict {
	score := 0.0
	// "few or no followers"
	if p.FollowersCount <= 30 {
		score++
	}
	// "few or no tweets"
	if p.StatusesCount <= 20 {
		score++
	}
	// "they tend to follow a lot of other accounts"
	if p.FriendsCount >= 250 {
		score++
	}
	// "the relationship between followers and friends ... the most
	// meaningful one" (Rob Waller).
	if p.FriendsCount > 0 && p.FollowerFriendRatio() < 0.05 {
		score++
	}
	if p.DefaultProfileImage {
		score += 0.5
	}
	if !p.HasBio {
		score += 0.5
	}
	if score >= 2.5 {
		return VerdictFake
	}
	if core.IsDormant(p, now) {
		return VerdictInactive
	}
	return VerdictGood
}

// Audit implements core.Auditor.
func (f *Fakers) Audit(screenName string) (core.Report, error) {
	sw := simclock.NewStopwatch(f.clock)
	callsBefore := f.client.Calls()

	target, err := f.client.UserByScreenName(screenName)
	if err != nil {
		return core.Report{}, fmt.Errorf("resolving %q: %w", screenName, err)
	}
	candidates, err := twitterapi.FollowerIDsUpTo(f.client, target.ID, f.cfg.Window)
	if err != nil {
		return core.Report{}, fmt.Errorf("fetching follower window of %q: %w", screenName, err)
	}
	idx := sampling.Uniform{}.Sample(len(candidates), f.cfg.Sample, f.root.Fork(screenName))
	sample := sampling.Select(candidates, idx)
	obs := simclock.Latch{Clock: f.clock}
	var counts core.VerdictCounts
	err = f.client.ScanProfiles(sample, func(v twitter.ProfileView) {
		switch f.Classify(v, obs.Now()) {
		case VerdictFake:
			counts.Fake++
		case VerdictInactive:
			counts.Inactive++
		default:
			counts.Genuine++
		}
	})
	if err != nil {
		return core.Report{}, fmt.Errorf("looking up sample of %q: %w", screenName, err)
	}
	now := obs.Now()
	report := core.Report{
		Tool:             f.Name(),
		Target:           target,
		NominalFollowers: target.FollowersCount,
		SampleSize:       counts.Total(),
		Window:           f.cfg.Window,
		HasInactiveClass: true,
		Elapsed:          sw.Elapsed(),
		APICalls:         f.client.Calls() - callsBefore,
		AssessedAt:       now,
	}
	report.InactivePct, report.FakePct, report.GenuinePct = counts.Percentages()
	return report, nil
}

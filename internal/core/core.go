// Package core contains the paper's primary contribution: the audit
// framework that runs fake-follower analytics over target accounts,
// measures their response times (Table II), collects their verdicts
// (Table III), quantifies their disagreement, and verifies the API-ordering
// hypothesis (Section IV-B) and the crawl-cost arithmetic behind them.
package core

import (
	"time"

	"fakeproject/internal/stats"
	"fakeproject/internal/twitter"
)

// Report is the outcome of one fake-follower analysis of one target,
// the row format underlying Tables II and III.
type Report struct {
	// Tool is the analytics engine that produced the report.
	Tool string
	// Target is the audited account's profile at analysis time.
	Target twitter.Profile
	// NominalFollowers is the real-world follower count the target
	// represents (equals Target.FollowersCount unless the population was
	// scaled; reports display this value, as the paper does).
	NominalFollowers int

	// SampleSize is the number of followers actually assessed.
	SampleSize int
	// Window is the number of newest followers that were candidates for
	// sampling (0 = the whole list).
	Window int

	// InactivePct, FakePct and GenuinePct are the verdict percentages
	// (0-100). Tools without an inactive class (Twitteraudit) leave
	// InactivePct at 0 and split everything between fake and genuine.
	InactivePct float64
	FakePct     float64
	GenuinePct  float64

	// HasInactiveClass reports whether the tool distinguishes inactive
	// followers at all ("twitteraudit does not consider inactive
	// followers", Table III footnote).
	HasInactiveClass bool

	// Elapsed is the (virtual) wall-clock time the analysis took — the
	// quantity of Table II.
	Elapsed time.Duration
	// APICalls is the number of Twitter API calls spent.
	APICalls int
	// Cached reports whether the result was served from the tool's cache.
	Cached bool
	// AssessedAt is when the underlying analysis was actually performed
	// (older than the request time for cached reports — Twitteraudit's
	// "7 months ago").
	AssessedAt time.Time

	// CILevel and the *CI bounds carry the statistical guarantees, when
	// the tool provides any (only the FC engine does).
	CILevel    float64
	InactiveCI stats.Interval
	FakeCI     stats.Interval
	GenuineCI  stats.Interval
}

// Auditor is a fake-follower analytics engine: given a screen name it
// produces a Report, spending API calls and (virtual) time.
type Auditor interface {
	// Name identifies the tool ("fakeproject-fc", "statuspeople", ...).
	Name() string
	// Audit analyses the target account.
	Audit(screenName string) (Report, error)
}

// VerdictCounts tallies one analysis run; helper shared by all tools.
type VerdictCounts struct {
	Inactive, Fake, Genuine int
}

// Total returns the number of assessed accounts.
func (v VerdictCounts) Total() int { return v.Inactive + v.Fake + v.Genuine }

// Percentages converts counts to the report's percentage fields.
func (v VerdictCounts) Percentages() (inactive, fake, genuine float64) {
	total := v.Total()
	if total == 0 {
		return 0, 0, 0
	}
	return 100 * float64(v.Inactive) / float64(total),
		100 * float64(v.Fake) / float64(total),
		100 * float64(v.Genuine) / float64(total)
}

// IsDormant applies the shared inactivity definition of the FC engine and
// Socialbakers: never tweeted, or last tweet older than 90 days at
// observation time.
func IsDormant(v twitter.ProfileView, now time.Time) bool {
	if v.HasNeverTweeted() {
		return true
	}
	return now.Sub(v.LastTweet()) > 90*24*time.Hour
}

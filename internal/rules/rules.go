// Package rules implements the classification rule sets from the literature
// that Section III reports the Fake Project tested on its gold standard:
//
//   - Camisani-Calzolari's human/active rules [13];
//   - Socialbakers' Fake Follower Check criteria [14] (also the engine of
//     the Socialbakers tool simulator in internal/tools/socialbakers);
//   - Stateofsearch.com's "7 signals to look out for" to recognise
//     Twitter bots [15].
//
// Each set is expressed as weighted boolean rules over a features.Context
// plus a decision threshold, so the evaluation harness can score them
// uniformly against the ML classifiers.
package rules

import (
	"fakeproject/internal/features"
)

// Polarity states what a firing rule indicates. Start at one so the zero
// value is invalid.
type Polarity int

// Rule polarities.
const (
	// IndicatesFake means firing rules push towards "fake".
	IndicatesFake Polarity = iota + 1
	// IndicatesHuman means firing rules push towards "genuine" and the
	// *absence* of points marks an account as fake.
	IndicatesHuman
)

// Rule is one weighted criterion.
type Rule struct {
	Name string
	// Weight is the rule's points valuation ("all the criteria have a
	// given number of points valuation", Section II-B).
	Weight float64
	// Fire reports whether the criterion holds for the account.
	Fire func(*features.Context) bool
}

// Set is a named rule set with a decision threshold.
type Set struct {
	Name     string
	Polarity Polarity
	Rules    []Rule
	// Threshold is the points level at which the verdict flips: for
	// IndicatesFake sets, score >= Threshold means fake; for
	// IndicatesHuman sets, score < Threshold means fake.
	Threshold float64
}

// Score sums the weights of firing rules.
func (s Set) Score(ctx *features.Context) float64 {
	total := 0.0
	for _, r := range s.Rules {
		if r.Fire(ctx) {
			total += r.Weight
		}
	}
	return total
}

// MaxScore returns the sum of all weights.
func (s Set) MaxScore() float64 {
	total := 0.0
	for _, r := range s.Rules {
		total += r.Weight
	}
	return total
}

// Fake applies the threshold to the score.
func (s Set) Fake(ctx *features.Context) bool {
	score := s.Score(ctx)
	if s.Polarity == IndicatesHuman {
		return score < s.Threshold
	}
	return score >= s.Threshold
}

// Firing lists the names of the rules that fire, for report explanations.
func (s Set) Firing(ctx *features.Context) []string {
	var out []string
	for _, r := range s.Rules {
		if r.Fire(ctx) {
			out = append(out, r.Name)
		}
	}
	return out
}

// CamisaniCalzolari returns the human-indicating rule set of
// M. Camisani-Calzolari's analysis of the Obama/Romney follower bases
// (Aug 2012): accounts accumulate "human" points for profile completeness
// and engagement; low totals are ruled fake.
func CamisaniCalzolari() Set {
	return Set{
		Name:      "camisani-calzolari",
		Polarity:  IndicatesHuman,
		Threshold: 5,
		Rules: []Rule{
			{Name: "has_name", Weight: 1, Fire: func(c *features.Context) bool { return c.Profile.HasName }},
			{Name: "has_image", Weight: 1, Fire: func(c *features.Context) bool { return !c.Profile.DefaultProfileImage }},
			{Name: "has_address", Weight: 1, Fire: func(c *features.Context) bool { return c.Profile.HasLocation }},
			{Name: "has_bio", Weight: 1, Fire: func(c *features.Context) bool { return c.Profile.HasBio }},
			{Name: "followers_30_plus", Weight: 1, Fire: func(c *features.Context) bool { return c.Profile.FollowersCount >= 30 }},
			{Name: "has_url", Weight: 1, Fire: func(c *features.Context) bool { return c.Profile.HasURL }},
			{Name: "tweets_50_plus", Weight: 1, Fire: func(c *features.Context) bool { return c.Profile.StatusesCount >= 50 }},
			{Name: "2x_followers_vs_friends", Weight: 1, Fire: func(c *features.Context) bool {
				return c.Profile.FollowersCount >= 2*c.Profile.FriendsCount
			}},
			{Name: "recently_active", Weight: 2, Fire: func(c *features.Context) bool {
				return features.LastTweetAgeDays(c) <= 90
			}},
		},
	}
}

// StateOfSearch returns stateofsearch.com's "How to recognize Twitterbots:
// 7 signals to look out for" (Sep 2012) as a fake-indicating rule set.
func StateOfSearch() Set {
	return Set{
		Name:      "stateofsearch",
		Polarity:  IndicatesFake,
		Threshold: 3,
		Rules: []Rule{
			{Name: "default_image", Weight: 1, Fire: func(c *features.Context) bool { return c.Profile.DefaultProfileImage }},
			{Name: "no_bio", Weight: 1, Fire: func(c *features.Context) bool { return !c.Profile.HasBio }},
			{Name: "follows_many_followed_little", Weight: 1, Fire: func(c *features.Context) bool {
				return c.Profile.FriendsCount >= 100 && c.Profile.FollowerFriendRatio() < 0.1
			}},
			{Name: "few_or_no_tweets", Weight: 1, Fire: func(c *features.Context) bool { return c.Profile.StatusesCount < 20 }},
			{Name: "retweet_heavy", Weight: 1, Fire: func(c *features.Context) bool { return features.RetweetRatio(c) > 0.5 }},
			{Name: "link_heavy", Weight: 1, Fire: func(c *features.Context) bool { return features.LinkRatio(c) > 0.5 }},
			{Name: "young_account", Weight: 1, Fire: func(c *features.Context) bool { return features.AgeDays(c) < 60 }},
		},
	}
}

// Socialbakers returns the eight Fake Follower Check criteria exactly as the
// paper quotes them in Section II-B, with a points valuation per criterion.
// The vendor never disclosed the weights or the threshold ("no details are
// provided on how to weigh the satisfaction of each single criterion");
// the weights here make each strong single criterion decisive and pairs of
// weak ones cumulative, which reproduces the published verdicts on the
// archetypes of this study.
func Socialbakers() Set {
	return Set{
		Name:      "socialbakers",
		Polarity:  IndicatesFake,
		Threshold: 2,
		Rules: []Rule{
			// "following/follower ratio = 50:1 (or more)"
			{Name: "ff_ratio_50_to_1", Weight: 2, Fire: func(c *features.Context) bool {
				return c.Profile.FriendsCount >= 50*max(c.Profile.FollowersCount, 1)
			}},
			// "more than 30% of the account's tweets use spam phrases"
			{Name: "spam_phrases_30pct", Weight: 2, Fire: func(c *features.Context) bool {
				return c.Profile.StatusesCount > 0 && features.SpamPhraseRatio(c) > 0.30
			}},
			// "the same tweets are repeated more than three times"
			{Name: "repeated_tweets", Weight: 2, Fire: func(c *features.Context) bool {
				return features.MaxDuplicateRun(c) > 3
			}},
			// "more than 90% of the account's tweets are retweets"
			{Name: "retweets_90pct", Weight: 2, Fire: func(c *features.Context) bool {
				return c.Profile.StatusesCount > 0 && features.RetweetRatio(c) > 0.90
			}},
			// "more than 90% of the account's tweets are links"
			{Name: "links_90pct", Weight: 2, Fire: func(c *features.Context) bool {
				return c.Profile.StatusesCount > 0 && features.LinkRatio(c) > 0.90
			}},
			// "the account has never tweeted"
			{Name: "never_tweeted", Weight: 1, Fire: func(c *features.Context) bool {
				return c.Profile.HasNeverTweeted()
			}},
			// "the account is more than two months old and still has a
			// default profile image"
			{Name: "old_default_image", Weight: 1, Fire: func(c *features.Context) bool {
				return features.AgeDays(c) > 60 && c.Profile.DefaultProfileImage
			}},
			// "the user did not fill in neither bio nor location and, at
			// the same time, is following more than 100 accounts"
			{Name: "empty_profile_following_100", Weight: 1, Fire: func(c *features.Context) bool {
				return !c.Profile.HasBio && !c.Profile.HasLocation && c.Profile.FriendsCount > 100
			}},
		},
	}
}

// AllSets returns every literature rule set, for the evaluation sweep of
// Section III ("algorithms based on 1) single classification rules proposed
// by [13], [14], [15]").
func AllSets() []Set {
	return []Set{CamisaniCalzolari(), Socialbakers(), StateOfSearch()}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Package features extracts classification features from Twitter accounts,
// organised by *crawling cost* as in the Fake Project methodology
// (Section III: "we have quantified their crawling cost and we built a set
// of optimized classifiers that make use of the more efficient features").
//
// Cost classes:
//
//   - CostA: derivable from a users/lookup profile alone (cheapest — 100
//     accounts per API call).
//   - CostB: requires the account's timeline (one user_timeline call per
//     account, 200 tweets per call).
//   - CostC: requires relationship lists (followers/friends of the account —
//     one rate-limited call per 5,000 edges, the most expensive).
package features

import (
	"strings"
	"time"

	"fakeproject/internal/twitter"
)

// CostClass ranks features by crawling cost. Start at one so the zero value
// is invalid.
type CostClass int

// Cost classes in increasing order of expense.
const (
	CostA CostClass = iota + 1 // profile only
	CostB                      // timeline required
	CostC                      // relationship lists required
)

// String implements fmt.Stringer.
func (c CostClass) String() string {
	switch c {
	case CostA:
		return "A(profile)"
	case CostB:
		return "B(timeline)"
	case CostC:
		return "C(relations)"
	default:
		return "invalid"
	}
}

// Context carries everything known about one account at extraction time.
// Timeline and relationship fields may be nil when the crawler did not pay
// for them; features needing them fall back as documented on each feature.
type Context struct {
	// Profile is the account's users/lookup attributes. The view, not the
	// materialised profile: no feature reads a string for more than
	// emptiness.
	Profile twitter.ProfileView
	// Timeline holds the account's most recent tweets, newest first
	// (nil if not crawled).
	Timeline []twitter.Tweet
	// TimelineCrawled distinguishes "not crawled" from "crawled and empty".
	TimelineCrawled bool
	// Friends and Followers are relationship ID lists (nil if not crawled).
	Friends   []twitter.UserID
	Followers []twitter.UserID
	// Now is the observation instant (drives age and recency features).
	Now time.Time
}

// Feature is a single named, costed extractor.
type Feature struct {
	Name string
	Cost CostClass
	// Extract computes the feature value; it must be a pure function of
	// the Context.
	Extract func(*Context) float64
}

// Set is an ordered collection of features.
type Set struct {
	Name     string
	Features []Feature
}

// Names returns the feature names in order.
func (s Set) Names() []string {
	out := make([]string, len(s.Features))
	for i, f := range s.Features {
		out[i] = f.Name
	}
	return out
}

// MaxCost returns the most expensive cost class used by the set.
func (s Set) MaxCost() CostClass {
	max := CostA
	for _, f := range s.Features {
		if f.Cost > max {
			max = f.Cost
		}
	}
	return max
}

// Filter returns a sub-set containing only features within the cost budget.
func (s Set) Filter(budget CostClass) Set {
	out := Set{Name: s.Name + "-cost" + budget.String()}
	for _, f := range s.Features {
		if f.Cost <= budget {
			out.Features = append(out.Features, f)
		}
	}
	return out
}

// Extract computes the feature vector of ctx under this set into dst's
// backing array (grown only if too short) and returns it, so a caller
// classifying account after account owns one row; pass nil for a fresh one.
func (s Set) Extract(ctx *Context, dst []float64) []float64 {
	dst = dst[:0]
	for _, f := range s.Features {
		dst = append(dst, f.Extract(ctx))
	}
	return dst
}

func boolF(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// AgeDays returns the account age in days at observation time.
func AgeDays(ctx *Context) float64 {
	created := ctx.Profile.Created()
	if created.IsZero() {
		return 0
	}
	return ctx.Now.Sub(created).Hours() / 24
}

// LastTweetAgeDays returns days since the last tweet; never-tweeted accounts
// return a large sentinel (3650) so that tree splits can isolate them.
func LastTweetAgeDays(ctx *Context) float64 {
	if ctx.Profile.LastTweetAt == 0 {
		return 3650
	}
	age := ctx.Now.Sub(ctx.Profile.LastTweet()).Hours() / 24
	if age < 0 {
		return 0
	}
	return age
}

// TweetsPerDay returns the account's lifetime tweeting rate.
func TweetsPerDay(ctx *Context) float64 {
	age := AgeDays(ctx)
	if age < 1 {
		age = 1
	}
	return float64(ctx.Profile.StatusesCount) / age
}

// timeline ratio helpers: prefer the crawled timeline; fall back to the
// extended-lookup behaviour ratios (see DESIGN.md §5).

func timelineRatio(ctx *Context, pred func(twitter.Tweet) bool, fallback float64) float64 {
	if !ctx.TimelineCrawled || len(ctx.Timeline) == 0 {
		return fallback
	}
	hits := 0
	for _, tw := range ctx.Timeline {
		if pred(tw) {
			hits++
		}
	}
	return float64(hits) / float64(len(ctx.Timeline))
}

// RetweetRatio is the fraction of retweets in the timeline.
func RetweetRatio(ctx *Context) float64 {
	return timelineRatio(ctx, func(tw twitter.Tweet) bool { return tw.IsRetweet },
		ctx.Profile.Behavior.RetweetRatio)
}

// LinkRatio is the fraction of tweets carrying URLs.
func LinkRatio(ctx *Context) float64 {
	return timelineRatio(ctx, func(tw twitter.Tweet) bool { return tw.HasLink },
		ctx.Profile.Behavior.LinkRatio)
}

// SpamPhraseRatio is the fraction of tweets containing known spam phrases.
func SpamPhraseRatio(ctx *Context) float64 {
	return timelineRatio(ctx, func(tw twitter.Tweet) bool {
		lower := strings.ToLower(tw.Text)
		for _, phrase := range twitter.SpamPhrases {
			if strings.Contains(lower, phrase) {
				return true
			}
		}
		return false
	}, ctx.Profile.Behavior.SpamRatio)
}

// DuplicateRatio is the fraction of tweets whose text duplicates another
// tweet of the same account ("the same tweets are repeated more than three
// times" criterion's underlying quantity).
func DuplicateRatio(ctx *Context) float64 {
	if !ctx.TimelineCrawled || len(ctx.Timeline) == 0 {
		return ctx.Profile.Behavior.DuplicateRatio
	}
	counts := make(map[string]int, len(ctx.Timeline))
	for _, tw := range ctx.Timeline {
		counts[tw.Text]++
	}
	dups := 0
	for _, c := range counts {
		if c > 1 {
			dups += c
		}
	}
	return float64(dups) / float64(len(ctx.Timeline))
}

// MaxDuplicateRun returns the highest repetition count of any single tweet
// text (Socialbakers: "the same tweets are repeated more than three times").
func MaxDuplicateRun(ctx *Context) float64 {
	if !ctx.TimelineCrawled || len(ctx.Timeline) == 0 {
		// Approximate from the duplicate ratio over an assumed 20-tweet
		// window; preserves ordering across accounts.
		return ctx.Profile.Behavior.DuplicateRatio * 20
	}
	counts := make(map[string]int, len(ctx.Timeline))
	max := 0
	for _, tw := range ctx.Timeline {
		counts[tw.Text]++
		if counts[tw.Text] > max {
			max = counts[tw.Text]
		}
	}
	return float64(max)
}

// ReplyRatio is the fraction of replies in the timeline (a Stringhini-style
// interaction feature; fake accounts rarely converse).
func ReplyRatio(ctx *Context) float64 {
	return timelineRatio(ctx, func(tw twitter.Tweet) bool { return tw.IsReply }, 0.1)
}

// MentionsPerTweet averages @-mentions per tweet.
func MentionsPerTweet(ctx *Context) float64 {
	if !ctx.TimelineCrawled || len(ctx.Timeline) == 0 {
		return 1
	}
	total := 0
	for _, tw := range ctx.Timeline {
		total += tw.Mentions
	}
	return float64(total) / float64(len(ctx.Timeline))
}

// HashtagsPerTweet averages hashtags per tweet.
func HashtagsPerTweet(ctx *Context) float64 {
	if !ctx.TimelineCrawled || len(ctx.Timeline) == 0 {
		return 1
	}
	total := 0
	for _, tw := range ctx.Timeline {
		total += tw.Hashtags
	}
	return float64(total) / float64(len(ctx.Timeline))
}

// BidirectionalLinkRatio is the fraction of the account's friends that also
// follow it back, computable only with both relationship lists crawled
// (Yang et al.'s strongest — and most expensive — spam feature).
func BidirectionalLinkRatio(ctx *Context) float64 {
	if len(ctx.Friends) == 0 {
		return 0
	}
	followers := make(map[twitter.UserID]struct{}, len(ctx.Followers))
	for _, id := range ctx.Followers {
		followers[id] = struct{}{}
	}
	both := 0
	for _, id := range ctx.Friends {
		if _, ok := followers[id]; ok {
			both++
		}
	}
	return float64(both) / float64(len(ctx.Friends))
}

// ProfileSet returns the class-A feature set: everything derivable from a
// users/lookup batch, i.e. what an auditor can afford when it must answer
// within seconds (the "optimized classifier" of Section III).
func ProfileSet() Set {
	return Set{
		Name: "profile",
		Features: []Feature{
			{Name: "followers_count", Cost: CostA, Extract: func(c *Context) float64 { return float64(c.Profile.FollowersCount) }},
			{Name: "friends_count", Cost: CostA, Extract: func(c *Context) float64 { return float64(c.Profile.FriendsCount) }},
			{Name: "statuses_count", Cost: CostA, Extract: func(c *Context) float64 { return float64(c.Profile.StatusesCount) }},
			{Name: "follower_friend_ratio", Cost: CostA, Extract: func(c *Context) float64 { return c.Profile.FollowerFriendRatio() }},
			{Name: "age_days", Cost: CostA, Extract: AgeDays},
			{Name: "last_tweet_age_days", Cost: CostA, Extract: LastTweetAgeDays},
			{Name: "tweets_per_day", Cost: CostA, Extract: TweetsPerDay},
			{Name: "has_bio", Cost: CostA, Extract: func(c *Context) float64 { return boolF(c.Profile.HasBio) }},
			{Name: "has_location", Cost: CostA, Extract: func(c *Context) float64 { return boolF(c.Profile.HasLocation) }},
			{Name: "has_url", Cost: CostA, Extract: func(c *Context) float64 { return boolF(c.Profile.HasURL) }},
			{Name: "default_profile_image", Cost: CostA, Extract: func(c *Context) float64 { return boolF(c.Profile.DefaultProfileImage) }},
			{Name: "protected", Cost: CostA, Extract: func(c *Context) float64 { return boolF(c.Profile.Protected) }},
			{Name: "verified", Cost: CostA, Extract: func(c *Context) float64 { return boolF(c.Profile.Verified) }},
			{Name: "never_tweeted", Cost: CostA, Extract: func(c *Context) float64 { return boolF(c.Profile.HasNeverTweeted()) }},
		},
	}
}

// StringhiniSet returns the feature set of Stringhini, Kruegel, Vigna,
// "Detecting spammers on social networks" (ACSAC 2010), adapted to Twitter:
// FF ratio, URL ratio, message similarity (duplicates), friend number,
// messages sent.
func StringhiniSet() Set {
	return Set{
		Name: "stringhini",
		Features: []Feature{
			{Name: "ff_ratio", Cost: CostA, Extract: func(c *Context) float64 {
				// Stringhini defines FF as friends(following)/followers.
				if c.Profile.FollowersCount == 0 {
					return float64(c.Profile.FriendsCount)
				}
				return float64(c.Profile.FriendsCount) / float64(c.Profile.FollowersCount)
			}},
			{Name: "url_ratio", Cost: CostB, Extract: LinkRatio},
			{Name: "message_similarity", Cost: CostB, Extract: DuplicateRatio},
			{Name: "friends_count", Cost: CostA, Extract: func(c *Context) float64 { return float64(c.Profile.FriendsCount) }},
			{Name: "statuses_count", Cost: CostA, Extract: func(c *Context) float64 { return float64(c.Profile.StatusesCount) }},
		},
	}
}

// YangSet returns the feature set of Yang, Harkreader, Gu ("Empirical
// evaluation and new design for fighting evolving Twitter spammers",
// TIFS 2013): graph-based and neighbor-based features, the expensive but
// evasion-resistant end of the literature.
func YangSet() Set {
	return Set{
		Name: "yang",
		Features: []Feature{
			{Name: "bidirectional_link_ratio", Cost: CostC, Extract: BidirectionalLinkRatio},
			{Name: "ff_ratio", Cost: CostA, Extract: func(c *Context) float64 {
				if c.Profile.FollowersCount == 0 {
					return float64(c.Profile.FriendsCount)
				}
				return float64(c.Profile.FriendsCount) / float64(c.Profile.FollowersCount)
			}},
			{Name: "account_age_days", Cost: CostA, Extract: AgeDays},
			{Name: "link_ratio", Cost: CostB, Extract: LinkRatio},
			{Name: "mentions_per_tweet", Cost: CostB, Extract: MentionsPerTweet},
			{Name: "hashtags_per_tweet", Cost: CostB, Extract: HashtagsPerTweet},
			{Name: "tweets_per_day", Cost: CostA, Extract: TweetsPerDay},
		},
	}
}

// FullSet returns the union feature set the Fake Project classifier trains
// on: profile + timeline + behaviour features.
func FullSet() Set {
	s := ProfileSet()
	s.Name = "full"
	s.Features = append(s.Features,
		Feature{Name: "retweet_ratio", Cost: CostB, Extract: RetweetRatio},
		Feature{Name: "link_ratio", Cost: CostB, Extract: LinkRatio},
		Feature{Name: "spam_phrase_ratio", Cost: CostB, Extract: SpamPhraseRatio},
		Feature{Name: "duplicate_ratio", Cost: CostB, Extract: DuplicateRatio},
		Feature{Name: "max_duplicate_run", Cost: CostB, Extract: MaxDuplicateRun},
		Feature{Name: "reply_ratio", Cost: CostB, Extract: ReplyRatio},
		Feature{Name: "mentions_per_tweet", Cost: CostB, Extract: MentionsPerTweet},
		Feature{Name: "hashtags_per_tweet", Cost: CostB, Extract: HashtagsPerTweet},
		Feature{Name: "bidirectional_link_ratio", Cost: CostC, Extract: BidirectionalLinkRatio},
	)
	return s
}

// LookupSet returns the audit-time feature set of the deployed FC engine:
// class-A features plus the behaviour ratios available in the extended
// lookup payload — everything computable from users/lookup alone, which is
// what makes the 9,604-account sample answerable in ~97 API calls.
func LookupSet() Set {
	s := ProfileSet()
	s.Name = "lookup"
	s.Features = append(s.Features,
		Feature{Name: "retweet_ratio", Cost: CostA, Extract: func(c *Context) float64 { return c.Profile.Behavior.RetweetRatio }},
		Feature{Name: "link_ratio", Cost: CostA, Extract: func(c *Context) float64 { return c.Profile.Behavior.LinkRatio }},
		Feature{Name: "spam_phrase_ratio", Cost: CostA, Extract: func(c *Context) float64 { return c.Profile.Behavior.SpamRatio }},
		Feature{Name: "duplicate_ratio", Cost: CostA, Extract: func(c *Context) float64 { return c.Profile.Behavior.DuplicateRatio }},
	)
	return s
}

// CrawlCost estimates the number of API calls needed to evaluate the set on
// one account (the currency of the Fake Project's optimization): class A is
// amortised 1/100 per account, class B costs one timeline call, class C one
// followers/ids plus one friends/ids call.
func (s Set) CrawlCost() float64 {
	cost := 0.01 // the amortised lookup share
	hasB, hasC := false, false
	for _, f := range s.Features {
		switch f.Cost {
		case CostB:
			hasB = true
		case CostC:
			hasC = true
		}
	}
	if hasB {
		cost++
	}
	if hasC {
		cost += 2
	}
	return cost
}

package twitter

import (
	"fmt"
	"time"

	"fakeproject/internal/drand"
)

// Deterministic content synthesis for procedurally stored accounts. The
// generated artefacts only need to be *feature-faithful*: classifiers look at
// spam phrases, duplicates, retweets, links, mention/hashtag counts and
// timestamps, so the synthesiser guarantees those match the account's stored
// behaviour ratios while the prose itself is boilerplate.

// SpamPhrases are the indicative phrases Socialbakers lists in its public
// methodology ("like diet, make money, work from home").
var SpamPhrases = []string{
	"diet", "make money", "work from home", "earn cash fast",
	"free followers", "lose weight now",
}

var firstNames = []string{
	"alessandro", "giulia", "marco", "francesca", "luca", "sara", "andrea",
	"elena", "davide", "chiara", "john", "mary", "james", "linda", "robert",
	"susan", "pierre", "amelie", "hans", "ingrid",
}

var lastNames = []string{
	"rossi", "bianchi", "ferrari", "russo", "romano", "gallo", "costa",
	"smith", "johnson", "brown", "wilson", "moore", "taylor", "martin",
	"bernard", "dubois", "muller", "schmidt", "novak", "kovacs",
}

var locations = []string{
	"Pisa, Italy", "Roma", "Milano", "London", "New York", "Paris",
	"Berlin", "Madrid", "Tokyo", "Somewhere", "Internet", "Earth",
}

var bioTemplates = []string{
	"love music and football",
	"living the dream, one day at a time",
	"official account. all opinions my own",
	"coffee addict | runner | dreamer",
	"student of life",
	"digital marketing enthusiast",
	"proud parent. amateur cook.",
	"tweets about tech and cats",
}

var genuineTexts = []string{
	"just watched the match, what a game",
	"monday again... need coffee",
	"great dinner with friends tonight",
	"reading a fantastic book, recommendations welcome",
	"this weather is unbelievable",
	"happy birthday to my best friend!",
	"new blog post is up, feedback welcome",
	"can't believe the news today",
	"finally finished that project",
	"weekend plans: absolutely nothing, and it's great",
}

var spamTexts = []string{
	"amazing diet trick doctors hate, click here",
	"make money from home, ask me how",
	"work from home and earn cash fast, limited spots",
	"get free followers instantly, visit now",
	"lose weight now with this one weird tip",
}

// Profile string synthesis runs on the users/lookup serving path (100
// profiles per request), so it must not construct PRNGs: seeding one
// math/rand generator costs a 607-word state initialisation. The draws
// below use a cheap hash finaliser instead of a rand stream. The
// classifiers only ever read these strings for emptiness — emptiness is
// flag-driven, which is why an audit scans ProfileViews (view.go) and
// never comes here at all.

// synthDraw hashes (seed, salt) into a uniform uint64: the allocation-free
// FNV-64a fold of the seed's bytes and the salt's (the hash.Hash64 behind
// fnv.New64a costs an interface and a []byte(salt) per draw, for the same
// value), then a splitmix64 finaliser because fnv alone avalanches poorly
// in the high bits.
func synthDraw(seed uint64, salt string) uint64 {
	x := drand.HashSeed(seed, salt)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// synthScreenName fabricates a handle (lowercase letters, trailing digits)
// from an account seed.
func synthScreenName(seed uint64) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	x := synthDraw(seed, "name")
	n := 7 + int(x%5)
	var buf [13]byte // 11 letters + 2 digits at most; the string is the one allocation
	b := buf[:0]
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		b = append(b, letters[(x>>33)%26])
	}
	if x&3 == 0 {
		b = append(b, '0'+byte((x>>40)%10), '0'+byte((x>>45)%10))
	}
	return string(b)
}

// fullNames is every "first last" pair, joined once so that humanName
// allocates nothing.
var fullNames = func() []string {
	out := make([]string, 0, len(firstNames)*len(lastNames))
	for _, first := range firstNames {
		for _, last := range lastNames {
			out = append(out, first+" "+last)
		}
	}
	return out
}()

func humanName(seed uint64) string {
	x := synthDraw(seed, "fullname")
	first := x % uint64(len(firstNames))
	last := (x >> 24) % uint64(len(lastNames))
	return fullNames[first*uint64(len(lastNames))+last]
}

func synthBio(seed uint64) string {
	return bioTemplates[synthDraw(seed, "bio")%uint64(len(bioTemplates))]
}

func synthLocation(seed uint64) string {
	return locations[synthDraw(seed, "loc")%uint64(len(locations))]
}

var tweetSources = []string{"web", "mobile", "api"}

// synthTimeline deterministically generates up to max most-recent-first
// tweets for a compact record. The same (record, max) always yields the same
// tweets. Feature guarantees:
//
//   - the newest tweet is at rec.lastTweetAt;
//   - inter-tweet gaps are exponential with a mean derived from the account's
//     lifetime and status count, so "tweets per day" features are coherent;
//   - retweet/link/spam/duplicate flags appear with the stored ratios;
//   - tweet IDs are unique per author and stable.
func synthTimeline(id UserID, rec *record, max int) []Tweet {
	total := int(rec.statuses)
	if total == 0 || rec.lastTweetAt == 0 {
		return nil
	}
	if max > total {
		max = total
	}
	src := drand.New(uint64(rec.seed)).Fork("timeline")

	// Mean gap spreads the account's statuses over its active life span.
	lifeSeconds := float64(rec.lastTweetAt - rec.createdAt)
	if lifeSeconds < 3600 {
		lifeSeconds = 3600
	}
	meanGap := lifeSeconds / float64(total)
	if meanGap < 30 {
		meanGap = 30
	}

	dupText := spamTexts[src.Intn(len(spamTexts))]
	retweetP := float64(rec.retweetPct) / 100
	linkP := float64(rec.linkPct) / 100
	spamP := float64(rec.spamPct) / 100
	dupP := float64(rec.dupPct) / 100

	out := make([]Tweet, 0, max)
	at := rec.lastTweetAt
	for i := 0; i < max; i++ {
		var text string
		isDup := src.Bool(dupP)
		isSpam := src.Bool(spamP)
		switch {
		case isDup:
			// Intentional duplicates repeat the exact same text — the
			// signal the "same tweets are repeated" criterion looks for.
			text = dupText
		case isSpam:
			// Non-duplicate tweets get a unique suffix so that template
			// reuse never masquerades as the duplication signal.
			text = fmt.Sprintf("%s %d", spamTexts[src.Intn(len(spamTexts))], total-i)
		default:
			text = fmt.Sprintf("%s %d", genuineTexts[src.Intn(len(genuineTexts))], total-i)
		}
		tw := Tweet{
			// Per-author unique, stable ID: author in the high bits, the
			// age index in the low 32. statuses is an int32, so the index
			// can never overflow into the author bits — 20 bits used to,
			// for any account past 1,048,576 statuses (Katy Perry scale),
			// silently colliding with the next author's ID space.
			ID:        TweetID(int64(id)<<32 | int64(total-i)),
			Author:    id,
			CreatedAt: time.Unix(at, 0).UTC(),
			Text:      text,
			IsRetweet: src.Bool(retweetP),
			HasLink:   isSpam || src.Bool(linkP),
			IsReply:   src.Bool(0.15),
			Mentions:  src.Intn(3),
			Hashtags:  src.Intn(3),
			Source:    tweetSources[src.Intn(len(tweetSources))],
		}
		if tw.IsRetweet {
			tw.Text = "RT @" + src.ScreenName() + ": " + tw.Text
		}
		if tw.HasLink {
			tw.Text += fmt.Sprintf(" http://t.co/%08x", src.Intn(1<<30))
		}
		out = append(out, tw)
		gap := int64(src.Exp(meanGap))
		if gap < 1 {
			gap = 1
		}
		// Cap the gap so the tweets still to come share the span left
		// above the account's creation instant, instead of the old clamp
		// that piled every overflowing tweet onto createdAt+1 — a
		// timestamp spike no real timeline exhibits. The budget counts
		// the *full* status count, not the requested max: Timeline(id, k)
		// must stay a timestamp-identical prefix of any deeper read, so
		// the cap cannot depend on how far this caller pages. It may
		// reach 0 (more tweets than seconds of life): timestamps then
		// repeat, which the chronology invariant permits.
		if remaining := int64(total - 1 - i); remaining > 0 {
			if maxGap := (at - (rec.createdAt + 1)) / remaining; gap > maxGap {
				gap = maxGap
				if gap < 0 {
					gap = 0
				}
			}
		}
		at -= gap
		if at <= rec.createdAt {
			at = rec.createdAt + 1
		}
	}
	return out
}

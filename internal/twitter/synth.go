package twitter

import (
	"strconv"

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

// timelineSynth is the draw state of one account's synthetic timeline: a
// seeded stream that yields the account's tweets newest first, one step per
// tweet. The same record always yields the same tweets. Feature guarantees:
//
//   - the newest tweet is at rec.lastTweetAt;
//   - inter-tweet gaps are exponential with a mean derived from the account's
//     lifetime and status count, so "tweets per day" features are coherent;
//   - retweet/link/spam/duplicate flags appear with the stored ratios;
//   - tweet IDs are unique per author and stable.
type timelineSynth struct {
	src     *drand.Source
	id      UserID
	total   int
	rank    int   // of the next tweet: 0 is the newest
	at      int64 // its unix-second timestamp
	created int64
	meanGap float64
	dupText string

	retweetP, linkP, spamP, dupP float64

	text []byte // scratch the next tweet's text is assembled in
}

func newTimelineSynth(id UserID, rec *record) *timelineSynth {
	total := int(rec.statuses)
	// Mean gap spreads the account's statuses over its active life span.
	lifeSeconds := float64(rec.lastTweetAt - rec.createdAt)
	if lifeSeconds < 3600 {
		lifeSeconds = 3600
	}
	meanGap := lifeSeconds / float64(total)
	if meanGap < 30 {
		meanGap = 30
	}
	// The stream drand.New(seed).Fork("timeline") has, without seeding the
	// parent generator nobody draws from.
	src := drand.New(drand.HashSeed(uint64(rec.seed), "timeline"))
	return &timelineSynth{
		src:      src,
		id:       id,
		total:    total,
		at:       rec.lastTweetAt,
		created:  rec.createdAt,
		meanGap:  meanGap,
		dupText:  spamTexts[src.Intn(len(spamTexts))],
		retweetP: float64(rec.retweetPct) / 100,
		linkP:    float64(rec.linkPct) / 100,
		spamP:    float64(rec.spamPct) / 100,
		dupP:     float64(rec.dupPct) / 100,
	}
}

// step makes the draws of the next tweet and moves to the one before it.
// Every tweet consumes its draws whether or not it is built — a page deep
// in the timeline is reached by stepping over the tweets above it — but
// only a built tweet pays for its string; an unbuilt one's value is void.
func (t *timelineSynth) step(build bool) Tweet {
	src := t.src
	age := t.total - t.rank // 1 for the oldest tweet
	isDup := src.Bool(t.dupP)
	isSpam := src.Bool(t.spamP)
	// Intentional duplicates repeat the exact same text — the signal the
	// "same tweets are repeated" criterion looks for. Every other tweet
	// gets a unique suffix (its age) so that template reuse never
	// masquerades as the duplication signal.
	base := t.dupText
	switch {
	case isDup:
	case isSpam:
		base = spamTexts[src.Intn(len(spamTexts))]
	default:
		base = genuineTexts[src.Intn(len(genuineTexts))]
	}
	var tw Tweet
	tw.IsRetweet = src.Bool(t.retweetP)
	tw.HasLink = isSpam || src.Bool(t.linkP)
	tw.IsReply = src.Bool(0.15)
	tw.Mentions = src.Intn(3)
	tw.Hashtags = src.Intn(3)
	source := tweetSources[src.Intn(len(tweetSources))]

	b := t.text[:0]
	if tw.IsRetweet {
		b = append(b, "RT @"...)
		b = src.AppendScreenName(b)
		b = append(b, ": "...)
	}
	b = append(b, base...)
	if !isDup {
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(age), 10)
	}
	if tw.HasLink {
		const hexDigits = "0123456789abcdef"
		link := src.Intn(1 << 30)
		b = append(b, " http://t.co/"...)
		for shift := 28; shift >= 0; shift -= 4 {
			b = append(b, hexDigits[link>>shift&0xf])
		}
	}
	t.text = b
	if build {
		// Per-author unique, stable ID: author in the high bits, the age in
		// the low 32. statuses is an int32, so the age can never overflow
		// into the author bits — 20 bits used to, for any account past
		// 1,048,576 statuses (Katy Perry scale), silently colliding with
		// the next author's ID space.
		tw.ID = TweetID(int64(t.id)<<32 | int64(age))
		tw.Author = t.id
		tw.CreatedAt = unixUTC(t.at)
		tw.Text = string(b)
		tw.Source = source
	}

	gap := int64(src.Exp(t.meanGap))
	if gap < 1 {
		gap = 1
	}
	// Cap the gap so the tweets still to come share the span left above
	// the account's creation instant, instead of piling every overflowing
	// tweet onto createdAt+1 — a timestamp spike no real timeline
	// exhibits. The budget counts the *full* status count, not how far
	// this caller reads: a tweet's timestamp may not depend on the page
	// that shows it. It may reach 0 (more tweets than seconds of life):
	// timestamps then repeat, which the chronology invariant permits.
	if remaining := int64(age - 1); remaining > 0 {
		if maxGap := (t.at - (t.created + 1)) / remaining; gap > maxGap {
			gap = max(maxGap, 0)
		}
	}
	t.at -= gap
	if t.at <= t.created {
		t.at = t.created + 1
	}
	t.rank++
	return tw
}

// visitSynthTimeline is VisitTimeline for an account without stored
// tweets: rank r (0 = newest) of its timeline carries the ID id<<32|total-r.
func visitSynthTimeline(id UserID, rec *record, maxID TweetID, count, depth int, fn func(Tweet)) {
	total := int(rec.statuses)
	if total == 0 || rec.lastTweetAt == 0 {
		return
	}
	first := 0
	if maxID != 0 {
		// The age of the newest tweet at or below maxID: 0 when maxID is
		// below every ID of this author.
		age := min(max(int64(maxID)-int64(id)<<32, 0), int64(total))
		first = total - int(age)
	}
	end := min(first+count, depth, total)
	if first >= end {
		return
	}
	t := newTimelineSynth(id, rec)
	for t.rank < first {
		t.step(false)
	}
	for t.rank < end {
		fn(t.step(true))
	}
}

package twitter

import (
	"fmt"
	"testing"
	"time"

	"fakeproject/internal/drand"
	"fakeproject/internal/simclock"
)

// synthTimelineOracle is the synthesiser VisitTimeline replaced, kept word
// for word as the reference its tweets are held to: the whole timeline down
// to max built in one loop, texts by fmt.Sprintf.
func synthTimelineOracle(id UserID, rec *record, max int) []Tweet {
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

// timelinePages reads the account's timeline as a client does: max_id pages
// of count tweets, each starting below the last tweet of the one before,
// until a page comes back empty.
func timelinePages(t *testing.T, s *Store, id UserID, count, depth int) []Tweet {
	t.Helper()
	var all []Tweet
	var maxID TweetID
	for {
		n := len(all)
		if err := s.VisitTimeline(id, maxID, count, depth, func(tw Tweet) { all = append(all, tw) }); err != nil {
			t.Fatal(err)
		}
		if len(all)-n > count {
			t.Fatalf("a page of %d holds %d tweets", count, len(all)-n)
		}
		if len(all) == n {
			return all
		}
		maxID = all[len(all)-1].ID - 1
	}
}

// TestTimelinePagesConcatenate: paging by max_id — a tweet, seven or a full
// 200 at a time — reads exactly the 3,200 newest tweets the whole-timeline
// read returns, IDs, times, texts and flags equal, for a synthetic account
// (against the synthesiser the visitor replaced) and for stored tweets. A
// page's tweets may not depend on where the page begins.
func TestTimelinePagesConcatenate(t *testing.T) {
	const depth = 3200
	s, _ := newTestStore()
	synth := mkUser(t, s, UserParams{
		CreatedAt: simclock.Epoch.AddDate(-5, 0, 0),
		LastTweet: simclock.Epoch.AddDate(0, 0, -2),
		Statuses:  5000,
		Behavior:  Behavior{RetweetRatio: 0.3, LinkRatio: 0.4, SpamRatio: 0.2, DuplicateRatio: 0.1},
	})
	stored := mkUser(t, s, UserParams{CreatedAt: simclock.Epoch.AddDate(-1, 0, 0)})
	for i := 0; i < 3500; i++ {
		tw := Tweet{CreatedAt: simclock.Epoch.Add(time.Duration(i) * time.Minute), Text: fmt.Sprint("stored ", i), Source: "web", Mentions: i % 3}
		if _, err := s.AppendTweet(stored, tw); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 { // other authors' tweets leave gaps in this one's IDs
			if _, err := s.AppendTweet(synth+1, Tweet{CreatedAt: tw.CreatedAt}); err != nil {
				t.Fatal(err)
			}
		}
	}

	sh := s.shardFor(synth)
	rec, err := s.recordIn(sh, synth)
	if err != nil {
		t.Fatal(err)
	}
	want := map[UserID][]Tweet{synth: synthTimelineOracle(synth, rec, depth)}
	want[stored] = make([]Tweet, depth)
	td := s.shardFor(stored).targetOf(stored)
	for i := range want[stored] {
		want[stored][i] = td.tweets[len(td.tweets)-1-i]
	}
	for id, want := range want {
		whole, err := s.Timeline(id, depth)
		if err != nil {
			t.Fatal(err)
		}
		reads := map[string][]Tweet{"Timeline": whole}
		for _, count := range []int{1, 7, 200} {
			reads[fmt.Sprint("pages of ", count)] = timelinePages(t, s, id, count, depth)
		}
		for name, got := range reads {
			if len(got) != len(want) {
				t.Fatalf("account %d, %s: %d tweets, want %d", id, name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("account %d, %s: tweet %d is\n%+v, want\n%+v", id, name, i, got[i], want[i])
				}
			}
		}
		// A max_id above the newest tweet, and one between two IDs, land on
		// the next tweet down; one below the oldest finds nothing.
		for _, tc := range []struct {
			maxID TweetID
			first int
		}{{want[0].ID + 5, 0}, {want[0].ID, 0}, {want[9].ID - 1, 10}, {want[depth-1].ID, depth - 1}, {1, -1}} {
			var got []Tweet
			if err := s.VisitTimeline(id, tc.maxID, 2, depth, func(tw Tweet) { got = append(got, tw) }); err != nil {
				t.Fatal(err)
			}
			switch {
			case tc.first < 0:
				if len(got) != 0 {
					t.Fatalf("account %d: max_id %d yields %d tweets, want none", id, tc.maxID, len(got))
				}
			case len(got) != min(2, depth-tc.first) || got[0] != want[tc.first]:
				t.Fatalf("account %d: max_id %d yields %+v, want tweet %d first", id, tc.maxID, got, tc.first)
			}
		}
	}
}

// TestTimelineVisitHoldsNoShardLock: the visitor copies what it needs under
// the shard's read lock and synthesises, and calls back, outside it, so a
// writer on the same shard — the same account, even — gets through while a
// visit is parked in its callback. (Timeline used to build up to 3,200
// tweets with the lock held.)
func TestTimelineVisitHoldsNoShardLock(t *testing.T) {
	s := NewStore(simclock.NewVirtualAtEpoch(), 42, WithShards(1))
	synth := mkUser(t, s, UserParams{
		CreatedAt: simclock.Epoch.AddDate(-1, 0, 0), LastTweet: simclock.Epoch.AddDate(0, 0, -1), Statuses: 50,
	})
	stored := mkUser(t, s, UserParams{CreatedAt: simclock.Epoch.AddDate(-1, 0, 0)})
	if _, err := s.AppendTweet(stored, Tweet{CreatedAt: simclock.Epoch, Text: "first"}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []UserID{synth, stored} {
		visits := 0
		err := s.VisitTimeline(id, 0, 10, 10, func(Tweet) {
			visits++
			if visits > 1 {
				return
			}
			written := make(chan error, 1)
			go func() {
				_, err := s.AppendTweet(stored, Tweet{CreatedAt: simclock.Epoch.Add(time.Hour), Text: "while visiting"})
				written <- err
			}()
			select {
			case err := <-written:
				if err != nil {
					t.Errorf("AppendTweet during a visit of %d: %v", id, err)
				}
			case <-time.After(10 * time.Second):
				t.Errorf("AppendTweet blocked while a timeline visit of %d sat in its callback", id)
			}
		})
		if err != nil || visits == 0 {
			t.Fatalf("visit of %d: %d tweets, %v", id, visits, err)
		}
	}
	// The visit of the stored account read the list as it stood when it
	// began: the tweet appended under it shows in the next read.
	if tl, err := s.Timeline(stored, 10); err != nil || len(tl) != 3 || tl[0].Text != "while visiting" {
		t.Fatalf("timeline after the visits: %+v, %v", tl, err)
	}
}

package twitterapi

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"fakeproject/internal/simclock"
	"fakeproject/internal/twitter"
)

// oracleBytes is what encoding/json makes of a wire struct, without the
// encoder's trailing newline.
func oracleBytes(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n")), nil
}

// FuzzEncodeMatchesEncodingJSON holds the append encoders to encoding/json
// byte for byte — for any strings (escapes, invalid UTF-8), any instants
// and zones, any floats, with and without a last tweet — and checks that
// what they print decodes, through the HTTP client's wire shapes, to the
// value that went in. A NaN or infinite ratio must fail in both, in the
// same words.
func FuzzEncodeMatchesEncodingJSON(f *testing.F) {
	epoch := simclock.Epoch.Unix()
	f.Add(" ", "plain", epoch, epoch, int32(0), 0.25, 0.5, int64(7), uint8(0))
	f.Add("\u2028\u2029", "<a&b>", epoch, epoch, int32(3600), 1e-7, 1e21, int64(-7), uint8(1))
	f.Add("\xff", "\x00", int64(0), int64(1), int32(-12345), math.Copysign(0, -1), 1e-6, int64(1)<<40, uint8(2))
	f.Add("\"\\\b\f\n\r\t\x7f", "é\xe2\x80", int64(-1)<<40, int64(1)<<40, int32(400000), 0.07, 123456789.125, int64(0), uint8(0xff))
	f.Add("a\xc0\xafb", "\u2027\u202a", epoch, epoch, int32(59), math.NaN(), math.Inf(-1), int64(3), uint8(4))
	f.Fuzz(func(t *testing.T, s1, s2 string, createdSec, lastSec int64, zoneSec int32, r1, r2 float64, n int64, flags uint8) {
		created := time.Unix(createdSec, 0).In(time.FixedZone("", int(zoneSec)))
		var last time.Time // the zero LastTweetAt is omitted from the wire
		if flags&1 == 0 {
			last = time.Unix(lastSec, 0).UTC()
		}
		p := twitter.Profile{
			User: twitter.User{
				ID: twitter.UserID(n), ScreenName: s1, Name: s2, CreatedAt: created,
				Bio: s1 + s2, Location: s2 + s1, URL: "http://example.com/" + s1,
				DefaultProfileImage: flags&2 != 0, Protected: flags&4 != 0, Verified: flags&8 != 0,
			},
			FollowersCount: int(n), FriendsCount: int(-n), StatusesCount: int(n >> 3),
			LastTweetAt: last,
			Behavior: twitter.Behavior{
				RetweetRatio: r1, LinkRatio: r2,
				SpamRatio: math.Round(r1*100) / 100, DuplicateRatio: -r2,
			},
		}
		tw := twitter.Tweet{
			ID: twitter.TweetID(n), Author: twitter.UserID(-n), CreatedAt: created, Text: s2 + s1,
			IsRetweet: flags&16 != 0, HasLink: flags&32 != 0, IsReply: flags&64 != 0,
			Mentions: int(n >> 5), Hashtags: int(flags), Source: s1,
		}

		gotTweet := appendTweet(nil, &tw)
		wantTweet, err := oracleBytes(encodeTweet(tw))
		if err != nil {
			t.Fatalf("oracle tweet: %v", err)
		}
		if !bytes.Equal(gotTweet, wantTweet) {
			t.Fatalf("tweet bytes differ\n got %s\nwant %s", gotTweet, wantTweet)
		}
		gotUser, gotErr := appendUser(nil, &p)
		wantUser, wantErr := oracleBytes(encodeUser(p))
		if wantErr != nil {
			if gotErr == nil || gotErr.Error() != wantErr.Error() {
				t.Fatalf("user error = %v, encoding/json says %v", gotErr, wantErr)
			}
			return
		}
		if gotErr != nil {
			t.Fatalf("user error %v where encoding/json has none", gotErr)
		}
		if !bytes.Equal(gotUser, wantUser) {
			t.Fatalf("user bytes differ\n got %s\nwant %s", gotUser, wantUser)
		}

		// And back, as HTTPClient reads them. The wire carries valid UTF-8,
		// whole seconds and a zone of whole minutes; a year outside 0..9999
		// prints but does not parse.
		if y := created.Year(); y < 0 || y > 9999 || zoneSec%60 != 0 {
			return
		}
		if y := last.Year(); y < 0 || y > 9999 {
			return
		}
		valid := func(s string) string { return string([]rune(s)) } // U+FFFD per invalid byte
		var uw userJSON
		if err := json.Unmarshal(gotUser, &uw); err != nil {
			t.Fatalf("user does not unmarshal: %v\n%s", err, gotUser)
		}
		back, err := decodeUser(uw)
		if err != nil {
			t.Fatalf("user does not decode: %v\n%s", err, gotUser)
		}
		want := p
		want.ScreenName, want.Name, want.Bio = valid(p.ScreenName), valid(p.Name), valid(p.Bio)
		want.Location, want.URL = valid(p.Location), valid(p.URL)
		if !back.CreatedAt.Equal(p.CreatedAt) || !back.LastTweetAt.Equal(p.LastTweetAt) {
			t.Fatalf("user times decode to %v, %v, want %v, %v", back.CreatedAt, back.LastTweetAt, p.CreatedAt, p.LastTweetAt)
		}
		back.CreatedAt, back.LastTweetAt = want.CreatedAt, want.LastTweetAt
		if math.Signbit(back.Behavior.RetweetRatio) != math.Signbit(p.Behavior.RetweetRatio) {
			t.Fatalf("ratio %v decodes to %v", p.Behavior.RetweetRatio, back.Behavior.RetweetRatio)
		}
		if back != want {
			t.Fatalf("user decodes to\n%+v, want\n%+v", back, want)
		}
		var tws tweetJSON
		if err := json.Unmarshal(gotTweet, &tws); err != nil {
			t.Fatalf("tweet does not unmarshal: %v\n%s", err, gotTweet)
		}
		backTweet, err := decodeTweet(tws)
		if err != nil {
			t.Fatalf("tweet does not decode: %v\n%s", err, gotTweet)
		}
		wantTw := tw
		wantTw.Text, wantTw.Source = valid(tw.Text), valid(tw.Source)
		if !backTweet.CreatedAt.Equal(tw.CreatedAt) {
			t.Fatalf("tweet time decodes to %v, want %v", backTweet.CreatedAt, tw.CreatedAt)
		}
		backTweet.CreatedAt = wantTw.CreatedAt
		if backTweet != wantTw {
			t.Fatalf("tweet decodes to\n%+v, want\n%+v", backTweet, wantTw)
		}
	})
}

// recorded is a response reduced to what a client sees of it.
type recorded struct {
	status              int
	contentType, length string
	body                string
}

func record(serve func(http.ResponseWriter)) recorded {
	rec := httptest.NewRecorder()
	serve(rec)
	return recorded{rec.Code, rec.Header().Get("Content-Type"), rec.Header().Get("Content-Length"), rec.Body.String()}
}

// TestResponsesMatchOracle: every body the handlers send — id pages, user
// objects, tweet arrays, error bodies — is what the reflective writer sent
// for the same value, status and headers included; a ratio JSON cannot
// carry still answers 500 with code 131 in encoding/json's words.
func TestResponsesMatchOracle(t *testing.T) {
	clock := simclock.NewVirtualAtEpoch()
	store := twitter.NewStore(clock, 5)
	target := store.MustCreateUser(twitter.UserParams{
		ScreenName: "t", Bio: true, URL: true, Statuses: 700,
		CreatedAt: simclock.Epoch.AddDate(-3, 0, 0), LastTweet: simclock.Epoch.AddDate(0, 0, -2),
		Behavior: twitter.Behavior{RetweetRatio: 0.31, LinkRatio: 0.5, SpamRatio: 0.07, DuplicateRatio: 1},
	})
	ids := []twitter.UserID{target}
	for i := 0; i < 40; i++ {
		id := store.MustCreateUser(twitter.UserParams{
			Statuses: i, Friends: 3 * i, Location: i%2 == 0, Bio: i%3 == 0,
			CreatedAt: simclock.Epoch.AddDate(-1, 0, -i),
			Behavior:  twitter.Behavior{RetweetRatio: float64(i) / 40, SpamRatio: float64(i%7) / 100},
		})
		if i%5 != 0 { // some accounts have tweeted, some never
			if _, err := store.AppendTweet(id, twitter.Tweet{CreatedAt: simclock.Epoch.AddDate(0, 0, -1), Text: "<b>&\u2028\"q\"", Source: "web"}); err != nil {
				t.Fatal(err)
			}
		}
		if err := store.AddFollower(target, id, simclock.Epoch.AddDate(0, -1, i)); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	svc := NewService(store)
	srv := NewServerLimits(svc, clock, nil)
	get := func(path string) recorded {
		return record(func(w http.ResponseWriter) { srv.ServeHTTP(w, httptest.NewRequest("GET", path, nil)) })
	}
	oracle := func(v any) recorded { return record(func(w http.ResponseWriter) { writeJSON(w, v) }) }
	check := func(name string, got, want recorded) {
		t.Helper()
		if got != want {
			t.Errorf("%s:\n got %+v\nwant %+v", name, got, want)
		}
	}

	var list []string
	for _, id := range append(ids, 9999, 0) { // unknown ids are dropped
		list = append(list, strconv.FormatInt(int64(id), 10))
	}
	profiles := store.Profiles(ids)
	users := make([]userJSON, len(profiles))
	for i, p := range profiles {
		users[i] = encodeUser(p)
	}
	check("users/lookup", get("/1.1/users/lookup.json?user_id="+strings.Join(list, ",")), oracle(users))
	check("users/lookup of nobody", get("/1.1/users/lookup.json?user_id=9999"), oracle([]userJSON{}))
	check("users/show", get("/1.1/users/show.json?screen_name=t"), oracle(users[0]))

	for _, q := range []struct {
		query string
		id    twitter.UserID
		count int
		maxID twitter.TweetID
	}{
		{"user_id=1", 1, 200, 0},
		{"screen_name=t&count=7", 1, 7, 0},
		{"user_id=1&count=3&max_id=" + strconv.FormatInt(1<<32|650, 10), 1, 3, 1<<32 | 650},
		{"user_id=3", 3, 200, 0}, // a stored tweet
		{"user_id=7", 7, 200, 0}, // never tweeted
	} {
		tweets, err := svc.UserTimeline(q.id, q.count, q.maxID)
		if err != nil {
			t.Fatal(err)
		}
		wire := make([]tweetJSON, len(tweets))
		for i, tw := range tweets {
			wire[i] = encodeTweet(tw)
		}
		if (len(wire) == 0) != (q.id == 7) {
			t.Fatalf("user_timeline?%s: %d tweets", q.query, len(wire))
		}
		check("user_timeline?"+q.query, get("/1.1/statuses/user_timeline.json?"+q.query), oracle(wire))
	}

	page, err := svc.FollowerIDs(target, CursorFirst)
	if err != nil {
		t.Fatal(err)
	}
	wirePage := idPageJSON{NextCursor: page.NextCursor}
	for _, id := range page.IDs {
		wirePage.IDs = append(wirePage.IDs, int64(id))
	}
	check("followers/ids", get("/1.1/followers/ids.json?user_id=1"), oracle(wirePage))
	check("followers/ids of a leaf", get("/1.1/followers/ids.json?user_id=2"), oracle(idPageJSON{IDs: []int64{}}))
	friends, err := svc.FriendIDs(3, CursorFirst)
	if err != nil {
		t.Fatal(err)
	}
	wireFriends := idPageJSON{IDs: []int64{}, NextCursor: friends.NextCursor}
	for _, id := range friends.IDs {
		wireFriends.IDs = append(wireFriends.IDs, int64(id))
	}
	check("friends/ids", get("/1.1/friends/ids.json?user_id=3"), oracle(wireFriends))

	oracleError := func(status, code int, msg string) recorded {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(errorJSON{Errors: []errorItemJSON{{Code: code, Message: msg}}}); err != nil {
			t.Fatal(err)
		}
		return recorded{status, "application/json", strconv.Itoa(buf.Len()), buf.String()}
	}
	check("unknown user", get("/1.1/followers/ids.json?user_id=9999"), oracleError(404, 34, "twitter: unknown user: 9999"))
	check("bad user_id", get(`/1.1/statuses/user_timeline.json?user_id=%3Cx%26%22`), oracleError(404, 34, `bad user_id "<x&\""`))
	check("forged cursor", get("/1.1/followers/ids.json?user_id=1&cursor=12345"), oracleError(400, 44, "twitterapi: invalid cursor: 12345"))

	// The store never holds a ratio outside [0,1]; a profile that somehow
	// did must fail as it did under encoding/json.
	bad := profiles[1]
	bad.Behavior.SpamRatio = math.NaN()
	check("NaN ratio, show", record(func(w http.ResponseWriter) { writeUser(w, &bad) }), oracle(encodeUser(bad)))
	bad.Behavior.SpamRatio = math.Inf(1)
	both := []twitter.Profile{profiles[0], bad}
	check("Inf ratio, lookup", record(func(w http.ResponseWriter) { writeUsers(w, both) }),
		oracle([]userJSON{encodeUser(both[0]), encodeUser(bad)}))
	if got := record(func(w http.ResponseWriter) { writeUser(w, &bad) }); got.status != 500 || !strings.Contains(got.body, `"code":131`) {
		t.Errorf("Inf ratio answers %+v, want a 500 with code 131", got)
	}
}

// TestIDPageWalkMatchesFollowersPage: the walk the followers/ids handler
// prints from serves, at every anchor, the page FollowersPage copies out,
// and both serve what the edge list itself says the page is — across sealed
// blocks and a partial tail, on an anchor whose edge was purged, and below
// the oldest survivor.
func TestIDPageWalkMatchesFollowersPage(t *testing.T) {
	clock := simclock.NewVirtualAtEpoch()
	store := twitter.NewStore(clock, 3)
	target := store.MustCreateUser(twitter.UserParams{ScreenName: "t"})
	const n = 3*512 + 137 // three sealed blocks and a partial tail
	at := simclock.Epoch.AddDate(0, -1, 0)
	followers := make([]twitter.UserID, n)
	for i := range followers {
		// IDs that jump about, so follower deltas take one to three bytes.
		followers[i] = store.MustCreateUser(twitter.UserParams{})
	}
	for i := range followers {
		j := (i * 7919) % n
		if err := store.AddFollower(target, followers[j], at.Add(time.Duration(i)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	// Purge the oldest edges (anchors below every survivor), a band in the
	// middle (anchors on purged edges) and a scatter; the survivors are
	// re-cut into canonical blocks and the appends after it open a new tail.
	var purge []twitter.UserID
	for i := 0; i < n; i++ {
		if i < 40 || (i >= 700 && i < 800) || i%97 == 0 {
			purge = append(purge, followers[(i*7919)%n])
		}
	}
	if _, err := store.RemoveFollowers(target, purge, at.Add(n*time.Second)); err != nil {
		t.Fatal(err)
	}
	for i, id := range purge[:90] {
		if err := store.AddFollower(target, id, at.Add(time.Duration(n+1+i)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	edges, err := store.FollowEdges(target) // oldest first, its own decoder
	if err != nil {
		t.Fatal(err)
	}
	if len(edges)%512 == 0 || len(edges) < 3*512 {
		t.Fatalf("%d live edges: want several blocks and a partial tail", len(edges))
	}
	maxSeq := edges[len(edges)-1].Seq
	for _, limit := range []int{1, 7, 512, 600, FollowerIDsPageSize} {
		for anchor := uint64(0); anchor <= maxSeq+2; anchor++ {
			fromSeq := anchor
			if anchor == maxSeq+2 {
				fromSeq = twitter.SeqNewest
			}
			// The page by definition: the newest edge at or below the
			// anchor and the limit-1 before it.
			var want IDPage
			newest := len(edges) - 1
			for newest >= 0 && edges[newest].Seq > fromSeq {
				newest--
			}
			rest := max(newest-limit, -1)
			for i := newest; i > rest; i-- {
				want.IDs = append(want.IDs, edges[i].Follower)
			}
			var wantNext uint64
			if rest >= 0 {
				wantNext = edges[rest].Seq
			}
			want.NextCursor = followerCursor(target, wantNext)
			wantBody := appendIDPage(nil, want)

			page, err := store.FollowersPage(target, fromSeq, limit)
			if err != nil {
				t.Fatal(err)
			}
			copied := appendIDPage(nil, IDPage{IDs: page.IDs, NextCursor: followerCursor(target, page.NextSeq)})
			var w twitter.FollowerWalk
			if err := store.WalkFollowers(&w, target, fromSeq, limit); err != nil {
				t.Fatal(err)
			}
			if w.Len() != len(want.IDs) || w.Total != len(edges) {
				t.Fatalf("anchor %d limit %d: walk of %d over %d edges, want %d over %d", anchor, limit, w.Len(), w.Total, len(want.IDs), len(edges))
			}
			walked := appendFollowerPage(nil, target, &w)
			if !bytes.Equal(copied, wantBody) || !bytes.Equal(walked, wantBody) {
				t.Fatalf("anchor %d limit %d:\nFollowersPage %.120s\nwalk          %.120s\nwant          %.120s", anchor, limit, copied, walked, wantBody)
			}
		}
	}
}

// TestEndpointAllocBudgets pins what a request may allocate on each read
// endpoint with rate limiting off, net/http's own share excluded (the
// request is built once, the writer discards). The budgets are the
// allocations that remain by design: the parsed query, the response
// headers, what the store materialises (a profile's synthesised strings, a
// tweet's text) — and nothing per ID, per encoder or per buffer. The
// reflective path spent 13 on followers/ids alone and thousands on a
// timeline.
func TestEndpointAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race") // as TestObservedOverheadZeroAlloc
	}
	svc, target := benchService(t, 12000, 12100)
	store := svc.Store()
	if _, err := store.AppendTweet(target, twitter.Tweet{CreatedAt: store.Now(), Text: "hello", Source: "web"}); err != nil {
		t.Fatal(err)
	}
	synth := store.MustCreateUser(twitter.UserParams{
		Statuses: 5000, CreatedAt: simclock.Epoch.AddDate(-4, 0, 0), LastTweet: simclock.Epoch.AddDate(0, 0, -1),
		Behavior: twitter.Behavior{RetweetRatio: 0.3, LinkRatio: 0.3},
	})
	var lookup []string
	for id := 2; id < 102; id++ {
		lookup = append(lookup, strconv.Itoa(id))
	}
	srv := NewServerLimits(svc, simclock.Real{}, nil)
	for _, tc := range []struct {
		name, path string
		budget     float64
	}{
		{"followers/ids", "/1.1/followers/ids.json?user_id=1&cursor=-1", 13},
		{"followers/ids by name", "/1.1/followers/ids.json?screen_name=t", 13},
		{"friends/ids", "/1.1/friends/ids.json?user_id=12050", 9},
		{"users/show", "/1.1/users/show.json?screen_name=t", 8},
		// A synthesised screen name per profile, and the batch.
		{"users/lookup", "/1.1/users/lookup.json?user_id=" + strings.Join(lookup, ","), 165},
		{"user_timeline, stored", "/1.1/statuses/user_timeline.json?user_id=1", 8},
		// One string per tweet, the draw stream and its scratch.
		{"user_timeline, synthetic", "/1.1/statuses/user_timeline.json?user_id=" + strconv.FormatInt(int64(synth), 10), 215},
	} {
		req := httptest.NewRequest("GET", tc.path, nil)
		w := &nopWriter{h: make(http.Header)}
		status := record(func(rw http.ResponseWriter) { srv.ServeHTTP(rw, req) }).status
		if status != http.StatusOK {
			t.Fatalf("%s: status %d", tc.name, status)
		}
		srv.ServeHTTP(w, req) // warm the pool
		got := testing.AllocsPerRun(200, func() { srv.ServeHTTP(w, req) })
		if got > tc.budget {
			t.Errorf("%s: %.1f allocations per request, budget %.0f", tc.name, got, tc.budget)
		}
		t.Logf("%s: %.1f allocations per request (budget %.0f)", tc.name, got, tc.budget)
	}
}

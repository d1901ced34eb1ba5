package twitter

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"fakeproject/internal/simclock"
)

func newTestStore() (*Store, *simclock.Virtual) {
	clock := simclock.NewVirtualAtEpoch()
	return NewStore(clock, 42), clock
}

func mkUser(t *testing.T, s *Store, p UserParams) UserID {
	t.Helper()
	id, err := s.CreateUser(p)
	if err != nil {
		t.Fatalf("CreateUser: %v", err)
	}
	return id
}

func TestCreateUserAssignsSequentialIDs(t *testing.T) {
	s, _ := newTestStore()
	for want := UserID(1); want <= 10; want++ {
		if got := mkUser(t, s, UserParams{}); got != want {
			t.Fatalf("ID = %d, want %d", got, want)
		}
	}
	if s.UserCount() != 10 {
		t.Fatalf("UserCount = %d, want 10", s.UserCount())
	}
}

func TestExplicitScreenNameRoundTrip(t *testing.T) {
	s, _ := newTestStore()
	id := mkUser(t, s, UserParams{ScreenName: "BarackObama"})
	name, err := s.ScreenName(id)
	if err != nil || name != "BarackObama" {
		t.Fatalf("ScreenName = %q, %v", name, err)
	}
	got, err := s.LookupName("BarackObama")
	if err != nil || got != id {
		t.Fatalf("LookupName = %d, %v", got, err)
	}
}

func TestDuplicateScreenNameRejectedAndRolledBack(t *testing.T) {
	s, _ := newTestStore()
	mkUser(t, s, UserParams{ScreenName: "davc"})
	_, err := s.CreateUser(UserParams{ScreenName: "davc"})
	if !errors.Is(err, ErrDuplicateName) {
		t.Fatalf("err = %v, want ErrDuplicateName", err)
	}
	if s.UserCount() != 1 {
		t.Fatalf("failed create must not leak a record; count = %d", s.UserCount())
	}
}

func TestSyntheticScreenNameDeterministic(t *testing.T) {
	s1, _ := newTestStore()
	s2, _ := newTestStore()
	a := mkUser(t, s1, UserParams{})
	b := mkUser(t, s2, UserParams{})
	n1, _ := s1.ScreenName(a)
	n2, _ := s2.ScreenName(b)
	if n1 != n2 {
		t.Fatalf("same seed, same ID should give same name: %q vs %q", n1, n2)
	}
	if n1 == "" {
		t.Fatal("synthetic name empty")
	}
}

func TestLookupNameUnknown(t *testing.T) {
	s, _ := newTestStore()
	if _, err := s.LookupName("nobody"); !errors.Is(err, ErrUnknownName) {
		t.Fatalf("err = %v, want ErrUnknownName", err)
	}
}

func TestProfileFields(t *testing.T) {
	s, _ := newTestStore()
	created := simclock.Epoch.AddDate(-2, 0, 0)
	last := simclock.Epoch.AddDate(0, 0, -10)
	id := mkUser(t, s, UserParams{
		ScreenName: "tester",
		CreatedAt:  created,
		LastTweet:  last,
		Statuses:   123,
		Friends:    45,
		Followers:  678,
		Bio:        true,
		Location:   true,
		URL:        true,
		Verified:   true,
		Class:      ClassGenuine,
		Behavior:   Behavior{RetweetRatio: 0.25, LinkRatio: 0.5, SpamRatio: 0, DuplicateRatio: 0.1},
	})
	p, err := s.Profile(id)
	if err != nil {
		t.Fatal(err)
	}
	if p.ScreenName != "tester" || p.StatusesCount != 123 || p.FriendsCount != 45 || p.FollowersCount != 678 {
		t.Fatalf("profile mismatch: %+v", p)
	}
	if !p.CreatedAt.Equal(created) || !p.LastTweetAt.Equal(last) {
		t.Fatalf("time mismatch: %+v", p)
	}
	if p.Bio == "" || p.Location == "" || p.URL == "" {
		t.Fatalf("bio/location/url should be synthesised: %+v", p)
	}
	if !p.Verified || p.Protected || p.DefaultProfileImage {
		t.Fatalf("flags mismatch: %+v", p)
	}
	if p.Behavior.RetweetRatio != 0.25 || p.Behavior.LinkRatio != 0.5 || p.Behavior.DuplicateRatio != 0.1 {
		t.Fatalf("behavior mismatch: %+v", p.Behavior)
	}
}

func TestProfileNeverTweeted(t *testing.T) {
	s, _ := newTestStore()
	id := mkUser(t, s, UserParams{})
	p, err := s.Profile(id)
	if err != nil {
		t.Fatal(err)
	}
	if !p.LastTweetAt.IsZero() || !p.View().HasNeverTweeted() {
		t.Fatalf("expected never-tweeted profile, got %+v", p)
	}
}

func TestFollowerFriendRatio(t *testing.T) {
	v := ProfileView{FollowersCount: 10, FriendsCount: 500}
	if r := v.FollowerFriendRatio(); r != 0.02 {
		t.Fatalf("ratio = %v, want 0.02", r)
	}
	v = ProfileView{FollowersCount: 7, FriendsCount: 0}
	if r := v.FollowerFriendRatio(); r != 7 {
		t.Fatalf("zero friends ratio = %v, want 7", r)
	}
}

func TestProfilesSkipsUnknown(t *testing.T) {
	s, _ := newTestStore()
	a := mkUser(t, s, UserParams{})
	got := s.Profiles([]UserID{a, 999, a})
	if len(got) != 2 {
		t.Fatalf("Profiles returned %d, want 2 (unknown skipped)", len(got))
	}
}

func TestAddFollowerOrderInvariant(t *testing.T) {
	s, clock := newTestStore()
	target := mkUser(t, s, UserParams{ScreenName: "target"})
	var followers []UserID
	for i := 0; i < 50; i++ {
		f := mkUser(t, s, UserParams{})
		if err := s.AddFollower(target, f, clock.Now()); err != nil {
			t.Fatal(err)
		}
		followers = append(followers, f)
		clock.Advance(time.Minute)
	}
	chrono, err := s.FollowersChronological(target)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range chrono {
		if id != followers[i] {
			t.Fatalf("chronological order broken at %d", i)
		}
	}
	newest, err := s.FollowersNewestFirst(target)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range newest {
		if id != followers[len(followers)-1-i] {
			t.Fatalf("newest-first order broken at %d", i)
		}
	}
	if n, _ := s.FollowerCount(target); n != 50 {
		t.Fatalf("FollowerCount = %d, want 50", n)
	}
}

func TestAddFollowerRejectsTimeTravel(t *testing.T) {
	s, clock := newTestStore()
	target := mkUser(t, s, UserParams{})
	f1 := mkUser(t, s, UserParams{})
	f2 := mkUser(t, s, UserParams{})
	if err := s.AddFollower(target, f1, clock.Now()); err != nil {
		t.Fatal(err)
	}
	err := s.AddFollower(target, f2, clock.Now().Add(-time.Hour))
	if !errors.Is(err, ErrNotMonotonic) {
		t.Fatalf("err = %v, want ErrNotMonotonic", err)
	}
}

func TestAddFollowerUnknownUsers(t *testing.T) {
	s, clock := newTestStore()
	id := mkUser(t, s, UserParams{})
	if err := s.AddFollower(999, id, clock.Now()); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("unknown target err = %v", err)
	}
	if err := s.AddFollower(id, 999, clock.Now()); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("unknown follower err = %v", err)
	}
}

func TestFollowerCountSyntheticVsTarget(t *testing.T) {
	s, clock := newTestStore()
	a := mkUser(t, s, UserParams{Followers: 777})
	if n, _ := s.FollowerCount(a); n != 777 {
		t.Fatalf("synthetic count = %d, want 777", n)
	}
	// Once materialised edges exist, they win.
	f := mkUser(t, s, UserParams{})
	if err := s.AddFollower(a, f, clock.Now()); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.FollowerCount(a); n != 1 {
		t.Fatalf("materialised count = %d, want 1", n)
	}
	p, _ := s.Profile(a)
	if p.FollowersCount != 1 {
		t.Fatalf("profile count = %d, want 1", p.FollowersCount)
	}
}

func TestNonTargetHasEmptyFollowerList(t *testing.T) {
	s, _ := newTestStore()
	a := mkUser(t, s, UserParams{Followers: 10})
	got, err := s.FollowersChronological(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("non-target should have no materialised followers, got %d", len(got))
	}
}

func TestAppendTweetUpdatesCounters(t *testing.T) {
	s, clock := newTestStore()
	id := mkUser(t, s, UserParams{CreatedAt: simclock.Epoch.AddDate(-1, 0, 0)})
	for i := 0; i < 5; i++ {
		if _, err := s.AppendTweet(id, Tweet{CreatedAt: clock.Now(), Text: "hello"}); err != nil {
			t.Fatal(err)
		}
		clock.Advance(time.Hour)
	}
	p, _ := s.Profile(id)
	if p.StatusesCount != 5 {
		t.Fatalf("StatusesCount = %d, want 5", p.StatusesCount)
	}
	if !p.LastTweetAt.Equal(simclock.Epoch.Add(4 * time.Hour)) {
		t.Fatalf("LastTweetAt = %v", p.LastTweetAt)
	}
	tl, err := s.Timeline(id, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl) != 5 {
		t.Fatalf("timeline length = %d, want 5", len(tl))
	}
	for i := 1; i < len(tl); i++ {
		if tl[i].CreatedAt.After(tl[i-1].CreatedAt) {
			t.Fatal("explicit timeline must be newest first")
		}
	}
}

func TestAppendTweetMonotonic(t *testing.T) {
	s, clock := newTestStore()
	id := mkUser(t, s, UserParams{})
	if _, err := s.AppendTweet(id, Tweet{CreatedAt: clock.Now()}); err != nil {
		t.Fatal(err)
	}
	_, err := s.AppendTweet(id, Tweet{CreatedAt: clock.Now().Add(-time.Minute)})
	if !errors.Is(err, ErrNotMonotonic) {
		t.Fatalf("err = %v, want ErrNotMonotonic", err)
	}
}

func TestSyntheticTimelineDeterministicAndShaped(t *testing.T) {
	s, _ := newTestStore()
	id := mkUser(t, s, UserParams{
		CreatedAt: simclock.Epoch.AddDate(-3, 0, 0),
		LastTweet: simclock.Epoch.AddDate(0, 0, -5),
		Statuses:  500,
		Behavior:  Behavior{RetweetRatio: 0.9, LinkRatio: 0.9, SpamRatio: 0.5, DuplicateRatio: 0.3},
	})
	a, err := s.Timeline(id, 200)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := s.Timeline(id, 200)
	if len(a) != 200 || len(b) != 200 {
		t.Fatalf("timeline lengths %d/%d, want 200", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("synthetic timeline not deterministic at %d", i)
		}
	}
	// Newest first, newest at LastTweet.
	if !a[0].CreatedAt.Equal(simclock.Epoch.AddDate(0, 0, -5)) {
		t.Fatalf("newest tweet at %v", a[0].CreatedAt)
	}
	retweets, links := 0, 0
	for i, tw := range a {
		if i > 0 && tw.CreatedAt.After(a[i-1].CreatedAt) {
			t.Fatal("timeline must be newest first")
		}
		if tw.IsRetweet {
			retweets++
			if !strings.HasPrefix(tw.Text, "RT @") {
				t.Fatalf("retweet text %q lacks RT prefix", tw.Text)
			}
		}
		if tw.HasLink {
			links++
			if !strings.Contains(tw.Text, "http://") {
				t.Fatalf("link tweet %q lacks URL", tw.Text)
			}
		}
	}
	if retweets < 150 {
		t.Fatalf("retweet ratio too low: %d/200 for 0.9", retweets)
	}
	if links < 150 {
		t.Fatalf("link ratio too low: %d/200 for 0.9", links)
	}
}

func TestSyntheticTimelineRespectsStatusCount(t *testing.T) {
	s, _ := newTestStore()
	id := mkUser(t, s, UserParams{
		CreatedAt: simclock.Epoch.AddDate(-1, 0, 0),
		LastTweet: simclock.Epoch.AddDate(0, 0, -1),
		Statuses:  7,
	})
	tl, err := s.Timeline(id, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl) != 7 {
		t.Fatalf("timeline = %d tweets, want 7 (status count)", len(tl))
	}
}

func TestTimelineOfNeverTweetedIsEmpty(t *testing.T) {
	s, _ := newTestStore()
	id := mkUser(t, s, UserParams{Statuses: 0})
	tl, err := s.Timeline(id, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl) != 0 {
		t.Fatalf("timeline = %d, want 0", len(tl))
	}
}

func TestTimelineTimesWithinAccountLife(t *testing.T) {
	s, _ := newTestStore()
	created := simclock.Epoch.AddDate(-1, 0, 0)
	id := mkUser(t, s, UserParams{
		CreatedAt: created,
		LastTweet: simclock.Epoch.AddDate(0, 0, -2),
		Statuses:  3000,
	})
	tl, _ := s.Timeline(id, 3000)
	for _, tw := range tl {
		if tw.CreatedAt.Before(created) {
			t.Fatalf("tweet at %v predates account creation %v", tw.CreatedAt, created)
		}
	}
}

func TestTrueClass(t *testing.T) {
	s, _ := newTestStore()
	id := mkUser(t, s, UserParams{Class: ClassFake})
	c, err := s.TrueClass(id)
	if err != nil || c != ClassFake {
		t.Fatalf("TrueClass = %v, %v", c, err)
	}
	if c.String() != "fake" {
		t.Fatalf("String = %q", c.String())
	}
}

func TestClassCounts(t *testing.T) {
	s, _ := newTestStore()
	var ids []UserID
	for i := 0; i < 3; i++ {
		ids = append(ids, mkUser(t, s, UserParams{Class: ClassGenuine}))
	}
	for i := 0; i < 2; i++ {
		ids = append(ids, mkUser(t, s, UserParams{Class: ClassFake}))
	}
	ids = append(ids, mkUser(t, s, UserParams{Class: ClassInactive}))
	got := s.ClassCounts(ids)
	if got[ClassGenuine] != 3 || got[ClassFake] != 2 || got[ClassInactive] != 1 {
		t.Fatalf("ClassCounts = %v", got)
	}
}

func TestFollowEdgesCopied(t *testing.T) {
	s, clock := newTestStore()
	target := mkUser(t, s, UserParams{})
	f := mkUser(t, s, UserParams{})
	if err := s.AddFollower(target, f, clock.Now()); err != nil {
		t.Fatal(err)
	}
	edges, _ := s.FollowEdges(target)
	edges[0].Follower = 999
	edges2, _ := s.FollowEdges(target)
	if edges2[0].Follower != f {
		t.Fatal("FollowEdges must return a copy")
	}
}

func TestFollowersNewestFirstProperty(t *testing.T) {
	s, clock := newTestStore()
	target := mkUser(t, s, UserParams{})
	f := func(nRaw uint8) bool {
		n := int(nRaw % 20)
		for i := 0; i < n; i++ {
			id := s.MustCreateUser(UserParams{})
			if err := s.AddFollower(target, id, clock.Now()); err != nil {
				return false
			}
			clock.Advance(time.Second)
		}
		chrono, err1 := s.FollowersChronological(target)
		newest, err2 := s.FollowersNewestFirst(target)
		if err1 != nil || err2 != nil || len(chrono) != len(newest) {
			return false
		}
		for i := range chrono {
			if chrono[i] != newest[len(newest)-1-i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestGrowPreallocates(t *testing.T) {
	s, _ := newTestStore()
	s.Grow(1000)
	for i := 0; i < 1000; i++ {
		mkUser(t, s, UserParams{})
	}
	if s.UserCount() != 1000 {
		t.Fatalf("UserCount = %d", s.UserCount())
	}
}

func TestIsTarget(t *testing.T) {
	s, clock := newTestStore()
	a := mkUser(t, s, UserParams{})
	b := mkUser(t, s, UserParams{})
	if s.IsTarget(a) {
		t.Fatal("fresh account should not be a target")
	}
	if err := s.AddFollower(a, b, clock.Now()); err != nil {
		t.Fatal(err)
	}
	if !s.IsTarget(a) {
		t.Fatal("account with followers should be a target")
	}
}

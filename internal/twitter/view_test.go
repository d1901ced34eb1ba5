package twitter

import (
	"hash/fnv"
	"testing"
	"time"

	"fakeproject/internal/simclock"
)

// viewStore builds a store whose accounts exercise every branch of the
// record → view derivation: every flag combination, tweeted and never
// tweeted, an explicit name, a target whose follower list churned, a target
// promoted by SetFriends alone, and one by AppendTweet alone.
func viewStore(t *testing.T) (*Store, []UserID) {
	t.Helper()
	s, clock := newTestStore()
	var ids []UserID
	for i := 0; i < 64; i++ {
		p := UserParams{
			CreatedAt:           simclock.Epoch.AddDate(0, 0, -i-1),
			Statuses:            i % 5 * 40,
			Friends:             i * 3,
			Followers:           i * 7 % 50,
			Bio:                 i&1 != 0,
			Location:            i&2 != 0,
			URL:                 i&4 != 0,
			DefaultProfileImage: i&8 != 0,
			Protected:           i&16 != 0,
			Verified:            i&32 != 0,
			Behavior:            Behavior{RetweetRatio: float64(i) / 64, LinkRatio: 0.5, SpamRatio: 0.25, DuplicateRatio: 1},
		}
		if p.Statuses > 0 {
			p.LastTweet = simclock.Epoch.AddDate(0, 0, -i)
		}
		if i == 7 {
			p.ScreenName = "explicit"
		}
		ids = append(ids, mkUser(t, s, p))
	}
	churned, befriended, tweeted := ids[0], ids[1], ids[2]
	for _, f := range ids[10:40] {
		if err := s.AddFollower(churned, f, clock.Now()); err != nil {
			t.Fatal(err)
		}
	}
	clock.Advance(time.Hour)
	if _, err := s.RemoveFollowers(churned, ids[10:25], clock.Now()); err != nil {
		t.Fatal(err)
	}
	if err := s.SetFriends(befriended, ids[40:45]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendTweet(tweeted, Tweet{CreatedAt: clock.Now(), Text: "hello"}); err != nil {
		t.Fatal(err)
	}
	return s, ids
}

// TestScanProfilesMatchesProfiles: the scan and the materialising lookup are
// two consumers of one derivation, so for any batch the scanned views are
// exactly the looked-up profiles reduced to views — same accounts, same
// order, unknown ids dropped by both.
func TestScanProfilesMatchesProfiles(t *testing.T) {
	s, ids := viewStore(t)
	batch := []UserID{0, -3, UserID(len(ids) + 1)}
	for i := len(ids) - 1; i >= 0; i-- { // reversed, so order is the input's, not the store's
		batch = append(batch, ids[i])
		if i%9 == 0 {
			batch = append(batch, UserID(len(ids)+100+i)) // unknown, mid-batch
		}
	}
	var got []ProfileView
	s.ScanProfiles(batch, func(v ProfileView) { got = append(got, v) })
	var want []ProfileView
	for _, p := range s.Profiles(batch) {
		want = append(want, p.View())
	}
	if len(got) != len(ids) || len(want) != len(ids) {
		t.Fatalf("scanned %d views, looked up %d profiles, want the %d known ids", len(got), len(want), len(ids))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("view %d differs:\n scan   %+v\n lookup %+v", i, got[i], want[i])
		}
	}
	// The materialised times are the view's, and round-trip through it.
	for _, id := range ids {
		p, err := s.Profile(id)
		if err != nil {
			t.Fatal(err)
		}
		v := p.View()
		if !v.Created().Equal(p.CreatedAt) || !v.LastTweet().Equal(p.LastTweetAt) || v.LastTweet().IsZero() != p.LastTweetAt.IsZero() {
			t.Fatalf("account %d: view times %v/%v, profile %v/%v", id, v.Created(), v.LastTweet(), p.CreatedAt, p.LastTweetAt)
		}
	}
}

// TestScanProfilesAllocatesNothing pins the point of the scan: no string,
// no profile, no per-account allocation of any kind.
func TestScanProfilesAllocatesNothing(t *testing.T) {
	s, ids := viewStore(t)
	statuses := 0
	visit := func(v ProfileView) { statuses += v.StatusesCount }
	if allocs := testing.AllocsPerRun(100, func() { s.ScanProfiles(ids, visit) }); allocs != 0 {
		t.Fatalf("ScanProfiles of %d accounts allocates %.0f times, want 0", len(ids), allocs)
	}
}

// TestSynthStringsAreStable: the inlined FNV fold draws the same values as
// hash/fnv over the same bytes, so every served string is what it was, and
// synthesis allocates only the strings it must.
func TestSynthStringsAreStable(t *testing.T) {
	reference := func(seed uint64, salt string) uint64 {
		h := fnv.New64a()
		var buf [8]byte
		for i := 0; i < 8; i++ {
			buf[i] = byte(seed >> (8 * i))
		}
		_, _ = h.Write(buf[:])
		_, _ = h.Write([]byte(salt))
		x := h.Sum64()
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		return x
	}
	for seed := uint64(0); seed < 5000; seed += 7 {
		for _, salt := range []string{"name", "fullname", "bio", "loc", ""} {
			if got, want := synthDraw(seed*2654435761, salt), reference(seed*2654435761, salt); got != want {
				t.Fatalf("synthDraw(%d, %q) = %#x, hash/fnv gives %#x", seed, salt, got, want)
			}
		}
		x := reference(seed, "fullname")
		want := firstNames[x%uint64(len(firstNames))] + " " + lastNames[(x>>24)%uint64(len(lastNames))]
		if got := humanName(seed); got != want {
			t.Fatalf("humanName(%d) = %q, want %q", seed, got, want)
		}
		if n := len(synthScreenName(seed)); n < 7 || n > 13 {
			t.Fatalf("synthScreenName(%d) has %d bytes, outside the 13-byte buffer's 7..13", seed, n)
		}
	}
	var sink string
	if allocs := testing.AllocsPerRun(100, func() { sink = humanName(12345) }); allocs != 0 {
		t.Fatalf("humanName allocates %.0f times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { sink = synthScreenName(12345) }); allocs != 1 {
		t.Fatalf("synthScreenName allocates %.0f times, want 1 (the string)", allocs)
	}
	_ = sink
}

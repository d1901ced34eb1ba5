package twitter

import (
	"fmt"
	"hash/fnv"
	"slices"
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

// scanPerID is ScanProfiles as it read before ids were taken a chunk at a
// time: one read lock and one view per id. It is the reference the chunked
// scan is differenced against.
func scanPerID(s *Store, ids []UserID, fn func(ProfileView)) {
	for _, id := range ids {
		s.mu.RLock()
		rec, err := s.recordIn(id)
		var v ProfileView
		if err == nil {
			s.viewOf(&v, id, rec)
		}
		s.mu.RUnlock()
		if err == nil {
			fn(v)
		}
	}
}

// TestScanProfilesChunkBoundaries: batches one short of a chunk, exactly a
// chunk, one past it and two chunks and a bit yield the per-id reference's
// views in input order — repeated ids, targets, and unknown ids at the
// first and last position of a chunk and across its boundary included —
// and allocate nothing.
func TestScanProfilesChunkBoundaries(t *testing.T) {
	clock := simclock.NewVirtualAtEpoch()
	s := NewStore(clock, 7)
	const accounts = 300
	for i := 0; i < accounts; i++ {
		p := UserParams{CreatedAt: simclock.Epoch.AddDate(0, 0, -i-1), Statuses: i % 7, Friends: i, Followers: i * 3, Bio: i%2 == 0}
		if i%50 == 0 {
			p.ScreenName = fmt.Sprintf("named%d", i)
		}
		mkUser(t, s, p)
	}
	for f := UserID(2); f < 40; f++ { // a materialised list overrides account 1's counter
		if err := s.AddFollower(1, f, clock.Now()); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []int{scanChunk - 1, scanChunk, scanChunk + 1, 2*scanChunk + 3} {
		ids := make([]UserID, n)
		for i := range ids {
			ids[i] = UserID(1 + (i*7919)%accounts)
		}
		ids[n/2] = ids[n/3] // a repeat
		unknown := map[int]bool{}
		for k, i := range []int{0, scanChunk - 1, scanChunk, n - 1} {
			if i < n {
				ids[i] = []UserID{0, -5, accounts + 1, 1 << 40}[k]
				unknown[i] = true
			}
		}
		var got, want []ProfileView
		s.ScanProfiles(ids, func(v ProfileView) { got = append(got, v) })
		scanPerID(s, ids, func(v ProfileView) { want = append(want, v) })
		if !slices.Equal(got, want) {
			t.Fatalf("%d ids: scan differs from the per-id reference\n got %+v\nwant %+v", n, got, want)
		}
		if len(got) != n-len(unknown) {
			t.Fatalf("%d ids: %d views; the unknown ids were not all skipped", n, len(got))
		}
		sum := 0
		visit := func(v ProfileView) { sum += v.FollowersCount }
		if allocs := testing.AllocsPerRun(20, func() { s.ScanProfiles(ids, visit) }); allocs != 0 {
			t.Fatalf("ScanProfiles of %d ids allocates %.0f times, want 0", n, allocs)
		}
	}
}

// TestScanProfilesSeesCommittedStates: with a writer appending tweets to
// the scanned accounts, every view is one committed state of its account —
// its status count and last-tweet instant from the same append, never one
// from each — and under -race the scan's reads are ordered after the
// writer's by the store lock.
func TestScanProfilesSeesCommittedStates(t *testing.T) {
	s, _ := newTestStore()
	const accounts, tweets = 40, 200
	start := simclock.Epoch.AddDate(0, -1, 0)
	ids := make([]UserID, accounts)
	for i := range ids {
		ids[i] = mkUser(t, s, UserParams{CreatedAt: start.AddDate(-1, 0, 0), Statuses: 10, LastTweet: start})
	}
	done := make(chan error, 1)
	go func() {
		for k := 1; k <= tweets; k++ {
			for _, id := range ids {
				if _, err := s.AppendTweet(id, Tweet{CreatedAt: start.Add(time.Duration(k) * time.Second), Text: "x"}); err != nil {
					done <- err
					return
				}
			}
		}
		done <- nil
	}()
	check := func(v ProfileView) {
		if grown := int64(v.StatusesCount - 10); v.LastTweetAt-start.Unix() != grown {
			t.Errorf("account %d: %d statuses with its last tweet %d s after the start: a torn view", v.ID, v.StatusesCount, v.LastTweetAt-start.Unix())
		}
	}
	batch := append(slices.Clone(ids), ids...)
	for {
		s.ScanProfiles(batch, check)
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			s.ScanProfiles(batch, func(v ProfileView) {
				if v.StatusesCount != 10+tweets {
					t.Errorf("account %d: %d statuses after the writer finished, want %d", v.ID, v.StatusesCount, 10+tweets)
				}
			})
			return
		default:
		}
	}
}

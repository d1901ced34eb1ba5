package twitter

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"testing"
	"time"

	"fakeproject/internal/simclock"
)

// buildGoldenStore is the fixed population the snapshot digest pins: more
// records than one record chunk, explicit names spread over the ID space,
// two targets with sealed edge blocks, a purge and an unfollow, explicit
// tweets, a friend list and a friend list set to empty.
func buildGoldenStore(t *testing.T) *Store {
	t.Helper()
	store := NewStore(simclock.NewVirtualAtEpoch(), 2014)
	const accounts = recordChunkLen + 4_000
	for i := 0; i < accounts; i++ {
		p := UserParams{
			CreatedAt: simclock.Epoch.AddDate(0, 0, -30-i%1500),
			Statuses:  i % 977,
			Friends:   i % 313,
			Followers: i % 541,
			Bio:       i%2 == 0, Location: i%3 == 0, URL: i%5 == 0,
			DefaultProfileImage: i%7 == 0,
			Protected:           i%11 == 0,
			Verified:            i%13 == 0,
			Class:               Class(1 + i%3),
			Behavior:            Behavior{RetweetRatio: float64(i%10) / 10, LinkRatio: 0.25, SpamRatio: float64(i%4) / 8, DuplicateRatio: 0.05},
		}
		if i%3 != 0 {
			p.LastTweet = simclock.Epoch.AddDate(0, 0, -(i % 200))
		}
		if i%4_999 == 0 {
			p.ScreenName = fmt.Sprintf("named%05d", i)
		}
		store.MustCreateUser(p)
	}
	targets := []UserID{1, 40_000}
	at := simclock.Epoch.AddDate(0, -6, 0)
	for i := 0; i < 3_000; i++ {
		for k, target := range targets {
			follower := UserID(2 + (i*7919+k*104_729)%(accounts-1))
			if follower == target {
				continue
			}
			if err := store.AddFollower(target, follower, at); err != nil {
				t.Fatal(err)
			}
		}
		at = at.Add(time.Duration(1+i%90) * time.Second)
	}
	var purge []UserID
	for i := 0; i < 600; i += 3 {
		purge = append(purge, UserID(2+(i*7919)%(accounts-1)))
	}
	if _, err := store.RemoveFollowers(targets[0], purge, at); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Unfollow(targets[1], UserID(2+(2_500*7919+104_729)%(accounts-1)), at.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := store.AppendTweet(targets[i%2], Tweet{
			CreatedAt: simclock.Epoch.AddDate(0, 0, -30+i),
			Text:      fmt.Sprintf("tweet %d", i),
			IsRetweet: i%4 == 0, HasLink: i%3 == 0, IsReply: i%5 == 0,
			Mentions: i % 3, Hashtags: i % 2,
			Source: []string{"web", "mobile", "api"}[i%3],
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.SetFriends(targets[0], []UserID{9, 5, 300, 70_000}); err != nil {
		t.Fatal(err)
	}
	if err := store.SetFriends(555, nil); err != nil {
		t.Fatal(err)
	}
	return store
}

// snapshotDigests returns the FNV-64a digests of a full snapshot and of a
// range export of store, as the golden file records them.
func snapshotDigests(t *testing.T, store *Store) string {
	t.Helper()
	var full, part bytes.Buffer
	if err := store.WriteSnapshot(&full); err != nil {
		t.Fatal(err)
	}
	if err := store.WriteSnapshotRange(&part, func(id UserID) bool { return id%2 == 0 }); err != nil {
		t.Fatal(err)
	}
	digest := func(b []byte) uint64 {
		h := fnv.New64a()
		h.Write(b)
		return h.Sum64()
	}
	return fmt.Sprintf("snapshot %d bytes fnv64a %016x\nrange %d bytes fnv64a %016x\n",
		full.Len(), digest(full.Bytes()), part.Len(), digest(part.Bytes()))
}

// TestSnapshotBytesGolden pins the snapshot encoding: a fixed population's
// full snapshot and range export hash to the digests in
// testdata/snapshot_digest.golden, and a store loaded from that snapshot
// writes the same bytes again. A change to the store's layout or locking
// must leave the digests alone; only a deliberate format change
// regenerates the file (with the output this test prints).
func TestSnapshotBytesGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/snapshot_digest.golden")
	if err != nil {
		t.Fatal(err)
	}
	store := buildGoldenStore(t)
	if got := snapshotDigests(t, store); got != string(golden) {
		t.Fatalf("snapshot digests differ from testdata/snapshot_digest.golden:\n got\n%s\nwant\n%s", got, golden)
	}
	var buf bytes.Buffer
	if err := store.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadSnapshot(&buf, simclock.NewVirtualAtEpoch())
	if err != nil {
		t.Fatal(err)
	}
	if got := snapshotDigests(t, loaded); got != string(golden) {
		t.Fatalf("a loaded snapshot rewrites to other digests:\n got\n%s\nwant\n%s", got, golden)
	}
}

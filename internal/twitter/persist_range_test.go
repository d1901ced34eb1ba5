package twitter

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"fakeproject/internal/simclock"
)

// buildRangeStore creates a store with three targets exercising each
// folding rule: one with live edges plus removals, one promoted by tweets
// and a materialised friends list alone (its synthetic follower counter
// must survive folding), one with edges only.
func buildRangeStore(t *testing.T) (*Store, [3]UserID) {
	t.Helper()
	clock := simclock.NewVirtualAtEpoch()
	store := NewStore(clock, 7)
	var targets [3]UserID
	for i := range targets {
		targets[i] = store.MustCreateUser(UserParams{
			ScreenName: "target" + string(rune('a'+i)),
			CreatedAt:  simclock.Epoch.AddDate(-2, 0, 0),
			Followers:  1000 + i, Friends: 77, Statuses: 5,
		})
	}
	for i := 0; i < 40; i++ {
		id := store.MustCreateUser(UserParams{
			CreatedAt: simclock.Epoch.AddDate(-3, 0, 0),
			Followers: 10, Friends: 20, Statuses: 3,
			Class: ClassGenuine,
		})
		at := simclock.Epoch.AddDate(-1, 0, i)
		if err := store.AddFollower(targets[0], id, at); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := store.AddFollower(targets[2], id, at.Add(time.Hour)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := store.Unfollow(targets[0], 4, simclock.Epoch); err != nil {
		t.Fatal(err)
	}
	if _, err := store.AppendTweet(targets[1], Tweet{
		CreatedAt: simclock.Epoch.AddDate(0, 0, -1), Text: "hi", Source: "web",
	}); err != nil {
		t.Fatal(err)
	}
	if err := store.SetFriends(targets[1], []UserID{5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	return store, targets
}

// TestRangeSnapshotFoldsProfiles: a node that loads only part of the
// target space must still serve every profile byte-identical to a node
// holding everything — the folding invariant the router's users/show
// routing depends on.
func TestRangeSnapshotFoldsProfiles(t *testing.T) {
	store, targets := buildRangeStore(t)
	var snap bytes.Buffer
	if err := store.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}

	full, err := ReadSnapshotRange(bytes.NewReader(snap.Bytes()), simclock.NewVirtualAtEpoch(), nil)
	if err != nil {
		t.Fatal(err)
	}
	keepA := func(id UserID) bool { return id == targets[0] }
	partial, err := ReadSnapshotRange(bytes.NewReader(snap.Bytes()), simclock.NewVirtualAtEpoch(), keepA)
	if err != nil {
		t.Fatal(err)
	}

	ids := make([]UserID, full.UserCount())
	for i := range ids {
		ids[i] = UserID(i + 1)
	}
	if partial.UserCount() != len(ids) {
		t.Fatalf("partial store has %d users, full has %d — record space must be global", partial.UserCount(), len(ids))
	}
	if fp, pp := full.Profiles(ids), partial.Profiles(ids); !reflect.DeepEqual(fp, pp) {
		t.Fatalf("profiles diverge on the partial node:\n full    %+v\n partial %+v", fp, pp)
	}

	// The kept target carries full heavy state; the dropped ones none.
	if !partial.IsTarget(targets[0]) {
		t.Fatal("kept target lost its materialised state")
	}
	fullIDs, errA := full.FollowersChronological(targets[0])
	partIDs, errB := partial.FollowersChronological(targets[0])
	if errA != nil || errB != nil || !reflect.DeepEqual(fullIDs, partIDs) {
		t.Fatalf("kept target's edges diverge: %d vs %d followers (%v, %v)", len(partIDs), len(fullIDs), errA, errB)
	}
	for _, dropped := range targets[1:] {
		if partial.IsTarget(dropped) {
			t.Fatalf("target %d outside the range still has heavy state installed", dropped)
		}
	}
	// But the dropped targets' profiles still reflect the folded counts.
	bp, err := partial.Profile(targets[1])
	if err != nil {
		t.Fatal(err)
	}
	if bp.FriendsCount != 4 {
		t.Fatalf("dropped target's friends counter = %d, want the folded list length 4", bp.FriendsCount)
	}
	if bp.FollowersCount != 1001 {
		t.Fatalf("dropped target's followers counter = %d, want the synthetic 1001 (never materialised an edge)", bp.FollowersCount)
	}
}

// TestWriteSnapshotRangeCanonical: the export of a range must not depend on
// which holder produced it — two range loads, a full range load, or the
// store the snapshot was taken from, whose records were never folded. That
// byte-equality is what lets a rejoining node stream its range from any
// holder.
func TestWriteSnapshotRangeCanonical(t *testing.T) {
	store, targets := buildRangeStore(t)
	var snap bytes.Buffer
	if err := store.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}

	keepA := func(id UserID) bool { return id == targets[0] }
	keepAB := func(id UserID) bool { return id == targets[0] || id == targets[1] }
	load := func(keep func(UserID) bool) *Store {
		s, err := ReadSnapshotRange(bytes.NewReader(snap.Bytes()), simclock.NewVirtualAtEpoch(), keep)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	var exports [][]byte
	for _, holder := range []*Store{load(keepA), load(keepAB), load(nil), store} {
		var buf bytes.Buffer
		if err := holder.WriteSnapshotRange(&buf, keepA); err != nil {
			t.Fatal(err)
		}
		exports = append(exports, buf.Bytes())
	}
	for i, export := range exports[1:] {
		if !bytes.Equal(exports[0], export) {
			t.Fatalf("range export of holder %d differs from the first range load's", i+1)
		}
	}

	// And the export is itself a loadable snapshot.
	reloaded, err := ReadSnapshotRange(bytes.NewReader(exports[0]), simclock.NewVirtualAtEpoch(), nil)
	if err != nil {
		t.Fatalf("range export not loadable: %v", err)
	}
	if !reloaded.IsTarget(targets[0]) || reloaded.IsTarget(targets[1]) {
		t.Fatal("reloaded range export holds the wrong target set")
	}
	if reloaded.UserCount() != store.UserCount() {
		t.Fatalf("reloaded export has %d users, want the full record space %d", reloaded.UserCount(), store.UserCount())
	}
}

// TestWriteSnapshotRangeNilKeep: a nil keep is the full snapshot.
func TestWriteSnapshotRangeNilKeep(t *testing.T) {
	store, _ := buildRangeStore(t)
	var full, ranged bytes.Buffer
	if err := store.WriteSnapshot(&full); err != nil {
		t.Fatal(err)
	}
	if err := store.WriteSnapshotRange(&ranged, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full.Bytes(), ranged.Bytes()) {
		t.Fatal("WriteSnapshotRange(nil) differs from WriteSnapshot")
	}
}

func TestLoadSnapshotRangeFile(t *testing.T) {
	store, targets := buildRangeStore(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "pop.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.WriteSnapshot(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	loaded, err := LoadSnapshotRangeFile(path, simclock.NewVirtualAtEpoch(),
		func(id UserID) bool { return id == targets[0] })
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.IsTarget(targets[0]) || loaded.IsTarget(targets[1]) {
		t.Fatal("loaded file holds the wrong target set")
	}

	if _, err := LoadSnapshotRangeFile(filepath.Join(dir, "absent.snap"), simclock.NewVirtualAtEpoch(), nil); err == nil {
		t.Fatal("missing file must fail")
	}
	bad := filepath.Join(dir, "bad.snap")
	if err := os.WriteFile(bad, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = LoadSnapshotRangeFile(bad, simclock.NewVirtualAtEpoch(), nil)
	if err == nil || !strings.Contains(err.Error(), "regenerate with genpop") {
		t.Fatalf("corrupt file error lacks the operator guidance: %v", err)
	}
}

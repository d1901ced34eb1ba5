package wal

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fakeproject/internal/simclock"
	"fakeproject/internal/twitter"
)

// writeSeedSnapshot builds a small population on clock — names, follows,
// a purge, an unfollow, a friend list — and writes its snapshot to path.
// The snapshot's header records clock's position at the dump.
func writeSeedSnapshot(t *testing.T, path string, clock *simclock.Virtual) []byte {
	t.Helper()
	st := twitter.NewStore(clock, 11)
	target, err := st.CreateUser(twitter.UserParams{ScreenName: "seeded"})
	if err != nil {
		t.Fatal(err)
	}
	var fans []twitter.UserID
	for i := 0; i < 40; i++ {
		clock.Advance(time.Minute)
		id, err := st.CreateUser(twitter.UserParams{Statuses: i, Followers: i % 7})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.AddFollower(target, id, clock.Now()); err != nil {
			t.Fatal(err)
		}
		fans = append(fans, id)
	}
	if _, err := st.RemoveFollowers(target, fans[5:9], clock.Now()); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Unfollow(target, fans[20], clock.Now()); err != nil {
		t.Fatal(err)
	}
	if err := st.SetFriends(target, fans[:3]); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// snapshotBytes is WriteSnapshot of st.
func snapshotBytes(t *testing.T, st *twitter.Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// dirNames lists dir's entries by name.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestSeedImportEquivalence: a seeded Open adopts the seed's bytes as
// snap-0 and returns the store one load of the seed yields, on a clock at
// the same instant — whether the seed's recorded clock is ahead of the
// opener's virtual clock (the clock advances to it) or behind it (the
// clock stays) — and a later unseeded Open recovers the same store.
func TestSeedImportEquivalence(t *testing.T) {
	epoch := simclock.Epoch
	for _, tc := range []struct {
		name            string
		seedAt, openAt  time.Time
		wantClockIsSeed bool
	}{
		{"seed-clock-ahead", epoch.Add(30 * 24 * time.Hour), epoch, true},
		{"seed-clock-behind", epoch, epoch.Add(60 * 24 * time.Hour), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seedClock := simclock.NewVirtual(tc.seedAt)
			seedPath := filepath.Join(t.TempDir(), "pop.gob")
			seedBytes := writeSeedSnapshot(t, seedPath, seedClock)

			dir := t.TempDir()
			clock := simclock.NewVirtual(tc.openAt)
			store, l, stats, err := Open(Config{Dir: dir, SeedSnapshot: seedPath, Policy: PolicyAlways, Clock: clock, Seed: 99})
			if err != nil {
				t.Fatal(err)
			}
			snap0 := filepath.Join(dir, snapshotName(0))
			if stats.SnapshotPath != snap0 || stats.SnapshotLSN != 0 || stats.LastLSN != 0 || stats.Users != store.UserCount() || stats.RecordsReplayed != 0 {
				t.Fatalf("stats %+v, want snapshot %s at LSN 0 with %d users", stats, snap0, store.UserCount())
			}
			onDisk, err := os.ReadFile(snap0)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(onDisk, seedBytes) {
				t.Fatalf("snap-0 (%d bytes) differs from the seed (%d bytes)", len(onDisk), len(seedBytes))
			}
			if _, err := os.Stat(filepath.Join(dir, "snap.tmp")); !os.IsNotExist(err) {
				t.Fatalf("snap.tmp left behind after a good import: %v", err)
			}

			refClock := simclock.NewVirtual(tc.openAt)
			ref, err := twitter.LoadSnapshotFile(seedPath, refClock)
			if err != nil {
				t.Fatal(err)
			}
			if !clock.Now().Equal(refClock.Now()) {
				t.Fatalf("opener's clock at %v, one load of the seed puts it at %v", clock.Now(), refClock.Now())
			}
			if tc.wantClockIsSeed && !clock.Now().Equal(seedClock.Now()) {
				t.Fatalf("clock at %v, want the seed's %v", clock.Now(), seedClock.Now())
			}
			if !tc.wantClockIsSeed && !clock.Now().Equal(tc.openAt) {
				t.Fatalf("clock moved to %v from %v though the seed is behind it", clock.Now(), tc.openAt)
			}
			want := snapshotBytes(t, ref)
			if !bytes.Equal(snapshotBytes(t, store), want) {
				t.Fatal("the imported store's snapshot differs from one load of the seed")
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			reClock := simclock.NewVirtual(tc.openAt)
			again, l2, stats2, err := Open(Config{Dir: dir, Clock: reClock, Seed: 99})
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			if stats2.SnapshotPath != snap0 || stats2.RecordsReplayed != 0 {
				t.Fatalf("reopen stats %+v", stats2)
			}
			if !reClock.Now().Equal(refClock.Now()) {
				t.Fatalf("reopened clock at %v, want %v", reClock.Now(), refClock.Now())
			}
			if !bytes.Equal(snapshotBytes(t, again), want) {
				t.Fatal("the reopened store's snapshot differs from the import's")
			}
		})
	}
}

// TestSeedImportBadSeedLeavesDirUntouched: a seed that does not load —
// truncated anywhere, not a snapshot, another snapshot version — fails Open
// with an error naming the seed, and the directory is left as it was: no
// snap-0 for a later recovery to trip over, no snap.tmp.
func TestSeedImportBadSeedLeavesDirUntouched(t *testing.T) {
	good := writeSeedSnapshot(t, filepath.Join(t.TempDir(), "good.gob"), simclock.NewVirtualAtEpoch())
	var v4 bytes.Buffer
	if err := gob.NewEncoder(&v4).Encode(struct {
		Version  int
		NameSeed uint64
	}{Version: 4, NameSeed: 7}); err != nil {
		t.Fatal(err)
	}
	seeds := []struct {
		name, wantErr string
		body          []byte
	}{
		{"empty", "", nil},
		{"not-snapshot", "", []byte("screen_name,followers\ndavc,1200\n")},
		{"version-4", "version 4", v4.Bytes()},
		{"truncated-first-byte", "", good[:1]},
		{"truncated-eighth", "", good[:len(good)/8]},
		{"truncated-third", "", good[:len(good)/3]},
		{"truncated-half", "", good[:len(good)/2]},
		{"truncated-last-byte", "", good[:len(good)-1]},
	}
	for _, tc := range seeds {
		t.Run(tc.name, func(t *testing.T) {
			seedPath := filepath.Join(t.TempDir(), "pop.gob")
			if err := os.WriteFile(seedPath, tc.body, 0o644); err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			_, _, _, err := Open(Config{Dir: dir, SeedSnapshot: seedPath, Clock: simclock.NewVirtualAtEpoch()})
			if err == nil {
				t.Fatal("a bad seed was imported")
			}
			if !strings.Contains(err.Error(), seedPath) || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error does not name the seed %s (and %q): %v", seedPath, tc.wantErr, err)
			}
			if names := dirNames(t, dir); len(names) != 0 {
				t.Fatalf("a failed import left %v in the directory", names)
			}
			// Nothing in the directory blocks a good import afterwards.
			goodPath := filepath.Join(t.TempDir(), "good.gob")
			if err := os.WriteFile(goodPath, good, 0o644); err != nil {
				t.Fatal(err)
			}
			_, l, _, err := Open(Config{Dir: dir, SeedSnapshot: goodPath, Clock: simclock.NewVirtualAtEpoch()})
			if err != nil {
				t.Fatalf("good import after a failed one: %v", err)
			}
			l.Close()
		})
	}
}

// TestSeedImportRefusesItsOwnScratchFile: a seed that is the directory's
// snap.tmp — by that path or through a hard link — would be truncated by
// the copy before it is read; Open refuses it and the seed keeps its bytes.
func TestSeedImportRefusesItsOwnScratchFile(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, "snap.tmp")
	seedBytes := writeSeedSnapshot(t, tmp, simclock.NewVirtualAtEpoch())
	link := filepath.Join(t.TempDir(), "pop.gob")
	if err := os.Link(tmp, link); err != nil {
		t.Fatal(err)
	}
	for _, seedPath := range []string{tmp, link} {
		_, _, _, err := Open(Config{Dir: dir, SeedSnapshot: seedPath, Clock: simclock.NewVirtualAtEpoch()})
		if err == nil || !strings.Contains(err.Error(), seedPath) {
			t.Fatalf("seed %s (the dir's own snap.tmp): %v", seedPath, err)
		}
		got, err := os.ReadFile(tmp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, seedBytes) {
			t.Fatalf("seed %s changed: %d bytes, was %d", seedPath, len(got), len(seedBytes))
		}
		if names := dirNames(t, dir); len(names) != 1 || names[0] != "snap.tmp" {
			t.Fatalf("directory after the refusal: %v", names)
		}
	}
}

// TestSeedImportOverStaleScratch: a crash before the import's rename
// leaves only a snap.tmp, which is no WAL state. The next import replaces
// it — even one longer than the seed — and yields exactly the seed.
func TestSeedImportOverStaleScratch(t *testing.T) {
	seedPath := filepath.Join(t.TempDir(), "pop.gob")
	seedBytes := writeSeedSnapshot(t, seedPath, simclock.NewVirtualAtEpoch())
	dir := t.TempDir()
	stale := append(append([]byte{}, seedBytes[:len(seedBytes)/2]...), bytes.Repeat([]byte{0xee}, len(seedBytes))...)
	if err := os.WriteFile(filepath.Join(dir, "snap.tmp"), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	clock := simclock.NewVirtualAtEpoch()
	store, l, _, err := Open(Config{Dir: dir, SeedSnapshot: seedPath, Clock: clock})
	if err != nil {
		t.Fatalf("import over a stale snap.tmp: %v", err)
	}
	defer l.Close()
	onDisk, err := os.ReadFile(filepath.Join(dir, snapshotName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, seedBytes) {
		t.Fatalf("snap-0 (%d bytes) differs from the seed (%d bytes)", len(onDisk), len(seedBytes))
	}
	ref, err := twitter.LoadSnapshotFile(seedPath, simclock.NewVirtualAtEpoch())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapshotBytes(t, store), snapshotBytes(t, ref)) {
		t.Fatal("the store imported over a stale snap.tmp differs from one load of the seed")
	}
}

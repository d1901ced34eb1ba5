package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fakeproject/internal/simclock"
	"fakeproject/internal/twitter"
)

func at(sec int64) time.Time { return time.Unix(sec, 0).UTC() }

// sampleRecords covers every record kind with non-trivial field values.
func sampleRecords() [][]byte {
	return [][]byte{
		encodeCreate(nil, 7, twitter.UserParams{
			ScreenName: "alice", CreatedAt: at(1234567), LastTweet: at(2345678),
			Statuses: 12, Friends: 34, Followers: 56,
			Bio: true, URL: true, Protected: true,
			Class:    twitter.ClassFake,
			Behavior: twitter.Behavior{RetweetRatio: 0.25, LinkRatio: 1, SpamRatio: 0.001, DuplicateRatio: 0.99},
		}),
		encodeCreate(nil, 8, twitter.UserParams{CreatedAt: at(0)}), // all-zero params, epoch create
		encodeEdge(nil, recFollow, 1, 2, at(99)),
		encodeEdge(nil, recUnfollow, 3, 4, at(100)),
		encodePurge(nil, 5, []twitter.UserID{9, 8, 7}, at(101)),
		encodePurge(nil, 5, nil, at(102)),
		encodeTweet(nil, twitter.Tweet{
			ID: 42, Author: 7, CreatedAt: at(103), Text: "hello, wal",
			IsRetweet: true, IsReply: true, Mentions: 2, Hashtags: 1, Source: "api",
		}),
		encodeSetFriends(nil, 7, []twitter.UserID{1, 2, 3}),
		encodeSetFriends(nil, 7, nil),
	}
}

func TestRecordRoundtrip(t *testing.T) {
	for i, payload := range sampleRecords() {
		rec, err := decodeRecord(payload)
		if err != nil {
			t.Fatalf("record %d: decode: %v", i, err)
		}
		// Re-encoding the decoded record must reproduce the bytes: the
		// cheapest proof that no field is dropped or re-ordered.
		var again []byte
		switch rec.kind {
		case recCreate:
			again = encodeCreate(nil, rec.id, rec.params)
		case recFollow, recUnfollow:
			again = encodeEdge(nil, rec.kind, rec.target, rec.follower, rec.at)
		case recPurge:
			again = encodePurge(nil, rec.target, rec.batch, rec.at)
		case recTweet:
			again = encodeTweet(nil, rec.tweet)
		case recSetFriends:
			again = encodeSetFriends(nil, rec.id, rec.batch)
		}
		if !bytes.Equal(payload, again) {
			t.Fatalf("record %d: roundtrip changed bytes:\n  %x\n  %x", i, payload, again)
		}
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	valid := sampleRecords()
	cases := [][]byte{
		nil,
		{},
		{0},          // kind 0 is reserved invalid
		{99},         // unknown kind
		valid[0][:5], // truncated create
		valid[6][:8], // truncated tweet
		append(append([]byte(nil), valid[2]...), 0xFF), // trailing bytes
	}
	// Claimed list count far beyond remaining bytes must fail before
	// allocating.
	huge := []byte{recSetFriends, 2}
	huge = binary.AppendUvarint(huge, math.MaxUint32)
	cases = append(cases, huge)
	for i, c := range cases {
		if _, err := decodeRecord(c); err == nil {
			t.Errorf("case %d (%x): decode accepted malformed payload", i, c)
		}
	}
}

// buildSegment assembles in-memory segment bytes: header + framed payloads.
func buildSegment(start uint64, payloads [][]byte) []byte {
	var buf bytes.Buffer
	var hdr [headerLen]byte
	copy(hdr[:], walMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:], formatVersion)
	binary.LittleEndian.PutUint64(hdr[12:], start)
	buf.Write(hdr[:])
	for _, p := range payloads {
		var frame [frameLen]byte
		binary.LittleEndian.PutUint32(frame[0:], uint32(len(p)))
		binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(p, crcTable))
		buf.Write(frame[:])
		buf.Write(p)
	}
	return buf.Bytes()
}

func TestReadRecordsTornTails(t *testing.T) {
	payloads := sampleRecords()
	full := buildSegment(1, payloads)
	// Every truncation of the byte stream must either read a clean prefix
	// of records or report a torn tail — never an error, never a panic.
	for cut := 0; cut < len(full); cut++ {
		br := bufio.NewReader(bytes.NewReader(full[:cut]))
		start, torn, err := parseSegmentHeader(br)
		if err != nil {
			t.Fatalf("cut %d: header error: %v", cut, err)
		}
		if torn {
			if cut >= headerLen {
				t.Fatalf("cut %d: full header reported torn", cut)
			}
			continue
		}
		if start != 1 {
			t.Fatalf("cut %d: start = %d", cut, start)
		}
		n, torn, err := readRecords(br, nil)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if cut == len(full) && (torn || n != uint64(len(payloads))) {
			t.Fatalf("full stream: n=%d torn=%v", n, torn)
		}
		if cut < len(full) && !torn && n == uint64(len(payloads)) {
			t.Fatalf("cut %d: truncated stream read everything cleanly", cut)
		}
	}
	// A flipped payload bit breaks the CRC: the stream must end (torn) at
	// that record, keeping the clean prefix.
	corrupt := append([]byte(nil), full...)
	corrupt[len(corrupt)-3] ^= 0x40
	br := bufio.NewReader(bytes.NewReader(corrupt))
	if _, _, err := parseSegmentHeader(br); err != nil {
		t.Fatal(err)
	}
	n, torn, err := readRecords(br, nil)
	if err != nil || !torn || n != uint64(len(payloads)-1) {
		t.Fatalf("corrupt tail: n=%d torn=%v err=%v", n, torn, err)
	}
}

func TestOpenEmptyAppendReopen(t *testing.T) {
	dir := t.TempDir()
	for _, policy := range []Policy{PolicyAlways, PolicyInterval, PolicyOff} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := filepath.Join(dir, policy.String())
			clock := simclock.NewVirtualAtEpoch()
			store, l, stats, err := Open(Config{Dir: dir, Policy: policy, SyncEvery: time.Millisecond, Clock: clock, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if stats.LastLSN != 0 || stats.Users != 0 {
				t.Fatalf("fresh dir recovered %+v", stats)
			}
			var ids []twitter.UserID
			for i := 0; i < 5; i++ {
				id, err := store.CreateUser(twitter.UserParams{Statuses: i})
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
			for _, f := range ids[1:] {
				if err := store.AddFollower(ids[0], f, clock.Now()); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := store.AppendTweet(ids[0], twitter.Tweet{CreatedAt: clock.Now(), Text: "t", Source: "web"}); err != nil {
				t.Fatal(err)
			}
			if _, err := store.Unfollow(ids[0], ids[1], clock.Now()); err != nil {
				t.Fatal(err)
			}
			if err := store.SetFriends(ids[0], ids[2:4]); err != nil {
				t.Fatal(err)
			}
			wantLSN := l.LastLSN()
			if wantLSN != 12 { // 5 creates + 4 follows + 1 tweet + 1 unfollow + 1 set-friends
				t.Fatalf("LastLSN = %d, want 12", wantLSN)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := store.CreateUser(twitter.UserParams{}); err == nil {
				t.Fatal("mutation after Close succeeded")
			}

			store2, l2, stats2, err := Open(Config{Dir: dir, Policy: policy, Clock: simclock.NewVirtualAtEpoch(), Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			if stats2.LastLSN != wantLSN || stats2.RecordsReplayed != wantLSN || stats2.TornTail {
				t.Fatalf("recovery stats %+v, want %d records", stats2, wantLSN)
			}
			if store2.UserCount() != 5 {
				t.Fatalf("recovered %d users", store2.UserCount())
			}
			fc, _ := store2.FollowerCount(ids[0])
			if fc != 3 {
				t.Fatalf("recovered follower count %d, want 3", fc)
			}
			tl, _ := store2.Timeline(ids[0], 10)
			if len(tl) != 1 || tl[0].Text != "t" {
				t.Fatalf("recovered timeline %+v", tl)
			}
			friends, ok := store2.Friends(ids[0])
			if !ok || len(friends) != 2 {
				t.Fatalf("recovered friends %v %v", friends, ok)
			}
		})
	}
}

func TestCompactTruncatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	clock := simclock.NewVirtualAtEpoch()
	store, l, _, err := Open(Config{Dir: dir, Policy: PolicyOff, Clock: clock, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	target, err := store.CreateUser(twitter.UserParams{ScreenName: "celebrity"})
	if err != nil {
		t.Fatal(err)
	}
	mkFollower := func() twitter.UserID {
		id, err := store.CreateUser(twitter.UserParams{})
		if err != nil {
			t.Fatal(err)
		}
		if err := store.AddFollower(target, id, clock.Now()); err != nil {
			t.Fatal(err)
		}
		return id
	}
	for i := 0; i < 10; i++ {
		mkFollower()
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	cut := l.LastLSN()
	// Pruning must leave exactly one snapshot (at the cut) and one live
	// segment (starting after it).
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]bool{}
	for _, e := range entries {
		files[e.Name()] = true
	}
	if len(files) != 2 || !files[segmentName(cut+1)] || !files[snapshotName(cut)] {
		t.Fatalf("after compaction dir holds %v, want exactly {%s, %s}", files, segmentName(cut+1), snapshotName(cut))
	}
	// More ops after the cut land in the new segment and replay on top of
	// the snapshot.
	for i := 0; i < 5; i++ {
		mkFollower()
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	store2, l2, stats, err := Open(Config{Dir: dir, Clock: simclock.NewVirtualAtEpoch(), Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if stats.SnapshotLSN != cut || stats.RecordsReplayed != 10 { // 5 creates + 5 follows past the cut
		t.Fatalf("recovery stats %+v, want snapshot at %d + 10 replayed", stats, cut)
	}
	fc, _ := store2.FollowerCount(target)
	if fc != 15 {
		t.Fatalf("follower count %d, want 15", fc)
	}
	if name, _ := store2.ScreenName(target); name != "celebrity" {
		t.Fatalf("screen name %q survived compaction wrong", name)
	}
}

func TestRecoveryRejectsGaps(t *testing.T) {
	dir := t.TempDir()
	create := encodeCreate(nil, 1, twitter.UserParams{CreatedAt: at(10)})
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), buildSegment(1, [][]byte{create}), 0o644); err != nil {
		t.Fatal(err)
	}
	// A segment claiming to start at 5 after a one-record segment leaves
	// records 3..4 unaccounted for: recovery must refuse, not guess.
	if err := os.WriteFile(filepath.Join(dir, segmentName(5)), buildSegment(5, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, err := Open(Config{Dir: dir, Clock: simclock.NewVirtualAtEpoch()})
	if err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("gap not detected: %v", err)
	}
}

func TestRecoveryRejectsHeaderMismatch(t *testing.T) {
	dir := t.TempDir()
	// Header says start=3 but the file is named wal-…01: corruption.
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), buildSegment(3, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Open(Config{Dir: dir, Clock: simclock.NewVirtualAtEpoch()}); err == nil {
		t.Fatal("header/name mismatch not detected")
	}
}

// TestRecoveryRejectsOtherSnapshotVersion: a directory whose only snapshot
// carries a retired (or future) format version fails recovery with the
// declared error — naming the version found — never with an empty store.
func TestRecoveryRejectsOtherSnapshotVersion(t *testing.T) {
	dir := t.TempDir()
	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode(struct {
		Version  int
		NameSeed uint64
	}{Version: 4, NameSeed: 7}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapshotName(0)), old.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, err := Open(Config{Dir: dir, Clock: simclock.NewVirtualAtEpoch()})
	if err == nil || !strings.Contains(err.Error(), "no loadable snapshot") || !strings.Contains(err.Error(), "version 4") {
		t.Fatalf("v4-only directory: %v", err)
	}
}

func TestTornTailMidChainTolerated(t *testing.T) {
	// Segment 1 holds a follow for a store with two users, then a torn
	// record; segment 2 resumes exactly after the tear — the shape a
	// crash-then-restart leaves behind.
	dir := t.TempDir()
	create1 := encodeCreate(nil, 1, twitter.UserParams{CreatedAt: at(10)})
	create2 := encodeCreate(nil, 2, twitter.UserParams{CreatedAt: at(11)})
	follow := encodeEdge(nil, recFollow, 1, 2, at(12))
	seg1 := buildSegment(1, [][]byte{create1, create2, follow})
	seg1 = append(seg1, 0xde, 0xad, 0xbe) // partial frame
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), seg1, 0o644); err != nil {
		t.Fatal(err)
	}
	follow2 := encodeEdge(nil, recFollow, 2, 1, at(13))
	if err := os.WriteFile(filepath.Join(dir, segmentName(4)), buildSegment(4, [][]byte{follow2}), 0o644); err != nil {
		t.Fatal(err)
	}
	store, l, stats, err := Open(Config{Dir: dir, Clock: simclock.NewVirtualAtEpoch()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if stats.RecordsReplayed != 4 || stats.LastLSN != 4 {
		t.Fatalf("stats %+v, want 4 records", stats)
	}
	for id, want := range map[twitter.UserID]int{1: 1, 2: 1} {
		if fc, _ := store.FollowerCount(id); fc != want {
			t.Fatalf("follower count of %d = %d", id, fc)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	for in, want := range map[string]Policy{"always": PolicyAlways, "interval": PolicyInterval, "off": PolicyOff, "": PolicyInterval} {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

func TestSegmentNameRoundtrip(t *testing.T) {
	for _, n := range []uint64{0, 1, 255, 1 << 40, math.MaxUint64} {
		if got, ok := parseSegmentName(segmentName(n)); !ok || got != n {
			t.Fatalf("segment name roundtrip of %d: %d %v", n, got, ok)
		}
		if got, ok := parseSnapshotName(snapshotName(n)); !ok || got != n {
			t.Fatalf("snapshot name roundtrip of %d: %d %v", n, got, ok)
		}
	}
	for _, bad := range []string{"wal-zz.log", "wal-0000000000000001.log.tmp", "snap.tmp", "wal-1.log", "pop.gob"} {
		if _, ok := parseSegmentName(bad); ok {
			t.Fatalf("parseSegmentName accepted %q", bad)
		}
		if _, ok := parseSnapshotName(bad); ok {
			t.Fatalf("parseSnapshotName accepted %q", bad)
		}
	}
}

func TestSeedSnapshotImport(t *testing.T) {
	// Build a population the classic way, dump it with WriteSnapshot, then
	// boot a WAL dir importing it: the population must be durable in-dir
	// immediately, and live ops must replay on top after a crash.
	clock := simclock.NewVirtualAtEpoch()
	seedStore := twitter.NewStore(clock, 4)
	target, err := seedStore.CreateUser(twitter.UserParams{ScreenName: "seeded"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		id, err := seedStore.CreateUser(twitter.UserParams{})
		if err != nil {
			t.Fatal(err)
		}
		if err := seedStore.AddFollower(target, id, clock.Now()); err != nil {
			t.Fatal(err)
		}
	}
	seedPath := filepath.Join(t.TempDir(), "pop.gob")
	f, err := os.Create(seedPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := seedStore.WriteSnapshot(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	dir := t.TempDir()
	store, l, _, err := Open(Config{Dir: dir, SeedSnapshot: seedPath, Policy: PolicyAlways, Clock: simclock.NewVirtualAtEpoch(), Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if store.UserCount() != 4 {
		t.Fatalf("imported %d users", store.UserCount())
	}
	extra, err := store.CreateUser(twitter.UserParams{})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.AddFollower(target, extra, store.Now()); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// A second Open with SeedSnapshot set must refuse: the dir has history.
	if _, _, _, err := Open(Config{Dir: dir, SeedSnapshot: seedPath, Clock: simclock.NewVirtualAtEpoch()}); err == nil {
		t.Fatal("re-import over an existing WAL dir was allowed")
	}
	store2, l2, stats, err := Open(Config{Dir: dir, Clock: simclock.NewVirtualAtEpoch(), Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if stats.RecordsReplayed != 2 || store2.UserCount() != 5 {
		t.Fatalf("stats %+v, users %d; want 2 replayed, 5 users", stats, store2.UserCount())
	}
	fc, _ := store2.FollowerCount(target)
	if fc != 4 {
		t.Fatalf("follower count %d, want 4", fc)
	}
}

func TestAutoCompact(t *testing.T) {
	dir := t.TempDir()
	clock := simclock.NewVirtualAtEpoch()
	store, l, _, err := Open(Config{Dir: dir, Policy: PolicyOff, SyncEvery: time.Millisecond, CompactEvery: 50, Clock: clock, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	target, err := store.CreateUser(twitter.UserParams{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		id, err := store.CreateUser(twitter.UserParams{})
		if err != nil {
			t.Fatal(err)
		}
		if err := store.AddFollower(target, id, clock.Now()); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for l.compactions.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("auto-compaction never ran")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if tail := l.LastLSN() - l.lastCompactLSN.Load(); tail > 401 {
		t.Fatalf("tail still %d records after auto-compaction", tail)
	}
}

func TestWriterFailsSticky(t *testing.T) {
	dir := t.TempDir()
	w, err := openWriter(dir, 0, PolicyAlways, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.append(nil); err == nil {
		t.Fatal("empty payload accepted")
	}
	if _, err := w.append(make([]byte, maxPayload+1)); err == nil {
		t.Fatal("oversized payload accepted")
	}
	lsn, err := w.append([]byte{recFollow, 2, 4, 6})
	if err != nil || lsn != 1 {
		t.Fatalf("append: %d, %v", lsn, err)
	}
	if err := w.sync(lsn); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.append([]byte{1}); !errors.Is(err, errWriterClosed) {
		t.Fatalf("append after close: %v", err)
	}
	if err := w.close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestOpenRequiresDir(t *testing.T) {
	if _, _, _, err := Open(Config{}); err == nil {
		t.Fatal("Open without Dir succeeded")
	}
}

func TestRotateCollisionAfterEmptyBoot(t *testing.T) {
	// Boot, append nothing, crash (abandon). The next boot replays zero
	// records and wants to create the same segment name; the empty
	// leftover must be replaced, not tripped over.
	dir := t.TempDir()
	_, l, _, err := Open(Config{Dir: dir, Clock: simclock.NewVirtualAtEpoch(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_ = l // abandoned without Close: simulated crash
	store2, l2, stats, err := Open(Config{Dir: dir, Clock: simclock.NewVirtualAtEpoch(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if stats.LastLSN != 0 {
		t.Fatalf("stats %+v", stats)
	}
	if _, err := store2.CreateUser(twitter.UserParams{}); err != nil {
		t.Fatal(err)
	}
	if store2.UserCount() != 1 {
		t.Fatalf("user count %d", store2.UserCount())
	}
}

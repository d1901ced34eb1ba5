package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"fakeproject/internal/simclock"
	"fakeproject/internal/twitter"
)

// RecoveryStats reports what Open's recovery pass did.
type RecoveryStats struct {
	// SnapshotPath is the snapshot replay started from ("" = none; replay
	// ran from LSN 1, or the directory was empty).
	SnapshotPath string
	// SnapshotLSN is the LSN the snapshot had folded in.
	SnapshotLSN uint64
	// LastLSN is the newest LSN restored; appends resume after it.
	LastLSN uint64
	// SegmentsScanned counts log segments read past the snapshot.
	SegmentsScanned int
	// RecordsReplayed counts individual ops re-applied.
	RecordsReplayed uint64
	// TornTail reports whether the final segment ended in a partial or
	// corrupt frame — the signature of a crash mid-append. The tear is
	// past the last durable record and is abandoned, not an error.
	TornTail bool
	// Users is the recovered account count.
	Users int
	// Elapsed is the wall time of the whole recovery pass.
	Elapsed time.Duration
}

// parseSegmentHeader validates a segment's magic/version and returns its
// start LSN. A file too short to hold a header is reported as torn (a
// crash can land between createSegment's open and its header write).
func parseSegmentHeader(br *bufio.Reader) (start uint64, torn bool, err error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, true, nil
	}
	if [8]byte(hdr[:8]) != walMagic {
		return 0, false, fmt.Errorf("bad magic %q", hdr[:8])
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != formatVersion {
		return 0, false, fmt.Errorf("record format v%d, this build reads v%d", v, formatVersion)
	}
	return binary.LittleEndian.Uint64(hdr[12:]), false, nil
}

// readRecords streams framed records from br, calling fn for each. It
// returns how many records were consumed and whether the stream ended in a
// torn tail — a partial frame, an implausible length, or a CRC mismatch —
// rather than a clean EOF. err is non-nil only for fn failures or for a
// fully framed, checksummed record that does not decode (real corruption
// or format skew, which must stop recovery loudly, unlike a tear).
func readRecords(br *bufio.Reader, fn func(rec record) error) (n uint64, torn bool, err error) {
	var frame [frameLen]byte
	for {
		if _, err := io.ReadFull(br, frame[:]); err != nil {
			return n, err != io.EOF, nil
		}
		plen := binary.LittleEndian.Uint32(frame[0:4])
		sum := binary.LittleEndian.Uint32(frame[4:8])
		if plen == 0 || plen > maxPayload {
			return n, true, nil
		}
		payload := make([]byte, plen)
		if _, err := io.ReadFull(br, payload); err != nil {
			return n, true, nil
		}
		if crc32.Checksum(payload, crcTable) != sum {
			return n, true, nil
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return n, false, fmt.Errorf("record %d of segment: %w", n+1, err)
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return n, false, err
			}
		}
		n++
	}
}

type segFile struct {
	start uint64
	path  string
}

// recoverDir rebuilds the store from dir: newest loadable snapshot, then
// every segment past it in LSN order. Segments must chain — each one's
// start LSN is the previous one's end plus one — except that a segment
// ending in a torn tail may be followed by a segment resuming exactly
// after its last *valid* record (the sequel of a crash-then-restart whose
// tear was abandoned by the restarted writer). A gap or overlap in the
// chain is corruption and fails recovery.
func recoverDir(dir string, clock simclock.Clock, seed uint64) (*twitter.Store, RecoveryStats, error) {
	begin := time.Now()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, RecoveryStats{}, fmt.Errorf("wal: reading %s: %w", dir, err)
	}
	var snaps []segFile
	var segs []segFile
	for _, e := range entries {
		if lsn, ok := parseSnapshotName(e.Name()); ok {
			snaps = append(snaps, segFile{lsn, filepath.Join(dir, e.Name())})
		}
		if start, ok := parseSegmentName(e.Name()); ok {
			segs = append(segs, segFile{start, filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].start > snaps[j].start }) // newest first
	sort.Slice(segs, func(i, j int) bool { return segs[i].start < segs[j].start })

	stats := RecoveryStats{}
	var store *twitter.Store
	var loadErrs []error
	for _, sn := range snaps {
		st, err := twitter.LoadSnapshotFile(sn.path, clock)
		if err != nil {
			// An unreadable snapshot (crash mid-rename never happens — the
			// tmp+rename dance is atomic — but disks corrupt) falls back to
			// the next older one; the log behind it still covers the delta.
			loadErrs = append(loadErrs, err)
			continue
		}
		store, stats.SnapshotPath, stats.SnapshotLSN = st, sn.path, sn.start
		break
	}
	if store == nil {
		// No loadable snapshot: only a log that reaches back to LSN 1 can
		// rebuild from scratch.
		if len(snaps) > 0 && (len(segs) == 0 || segs[0].start > 1) {
			return nil, RecoveryStats{}, fmt.Errorf("wal: no loadable snapshot in %s and the log does not reach back to record 1: %v", dir, loadErrs)
		}
		store = twitter.NewStore(clock, seed)
	}

	lsn := stats.SnapshotLSN
	stats.LastLSN = lsn
	var maxAt time.Time
	apply := func(rec record) error {
		if err := rec.apply(store); err != nil {
			return err
		}
		if at := rec.eventTime(); at.After(maxAt) {
			maxAt = at
		}
		return nil
	}
	for _, seg := range segs {
		if seg.start <= lsn {
			// Entirely behind the snapshot (compaction prunes these, but a
			// crash between rename and prune leaves them) — skip.
			continue
		}
		if seg.start != lsn+1 {
			return nil, RecoveryStats{}, fmt.Errorf("wal: log gap: %s starts at record %d but replay is at %d", seg.path, seg.start, lsn)
		}
		n, torn, err := replaySegment(seg.path, seg.start, apply)
		if err != nil {
			return nil, RecoveryStats{}, err
		}
		lsn += n
		stats.SegmentsScanned++
		stats.RecordsReplayed += n
		stats.TornTail = torn
		// A tear mid-chain is fine exactly when the next segment resumes at
		// lsn+1 — the chain check above enforces it on the next iteration.
	}
	stats.LastLSN = lsn
	stats.Users = store.UserCount()
	// Everything replayed happened at simulated instants up to maxAt; a
	// virtual clock must resume at or past it for further mutations to stay
	// monotonic (mirrors ReadSnapshot's ClockUnix handling).
	if v, ok := clock.(*simclock.Virtual); ok && maxAt.After(v.Now()) {
		v.SetNow(maxAt)
	}
	stats.Elapsed = time.Since(begin)
	return store, stats, nil
}

// replaySegment reads one segment, validating its header against the name
// it carries, and applies every record.
func replaySegment(path string, wantStart uint64, fn func(rec record) error) (n uint64, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false, fmt.Errorf("wal: opening segment: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	start, torn, err := parseSegmentHeader(br)
	if err != nil {
		return 0, false, fmt.Errorf("wal: segment %s: %w", path, err)
	}
	if torn {
		// Headerless stub: the crash hit between file creation and the
		// header write. Nothing in it, nothing lost.
		return 0, true, nil
	}
	if start != wantStart {
		return 0, false, fmt.Errorf("wal: segment %s claims start record %d in its header", path, start)
	}
	n, torn, err = readRecords(br, fn)
	if err != nil {
		return n, false, fmt.Errorf("wal: segment %s: %w", path, err)
	}
	return n, torn, nil
}

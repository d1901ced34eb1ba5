package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"fakeproject/internal/metrics"
	"fakeproject/internal/twitter"
)

// Log is the live durability log attached to a store: it implements
// twitter.OpLog (every mutation lands here from inside the store's critical
// sections), compacts the log into snapshots, and exports the wal_*
// metrics. Obtain one through Open; close it before process exit.
type Log struct {
	dir   string
	w     *writer
	st    *twitter.Store
	stats RecoveryStats // what boot-time recovery did, frozen

	// compactMu serialises compactions (explicit Compact calls racing the
	// auto-compactor).
	compactMu sync.Mutex
	// lastCompactLSN is the LSN folded into the newest snapshot.
	lastCompactLSN atomic.Uint64
	compactions    atomic.Uint64
	compactErrs    atomic.Uint64
	compactHist    metrics.Histogram

	done      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

// payloadPool recycles record-encoding buffers: one encode per store
// mutation, always released before the hook returns.
var payloadPool = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

func (l *Log) log(encode func(b []byte) []byte) (uint64, error) {
	bp := payloadPool.Get().(*[]byte)
	buf := encode((*bp)[:0])
	lsn, err := l.w.append(buf)
	*bp = buf
	payloadPool.Put(bp)
	return lsn, err
}

// LogCreate implements twitter.OpLog.
func (l *Log) LogCreate(id twitter.UserID, p twitter.UserParams) (uint64, error) {
	return l.log(func(b []byte) []byte { return encodeCreate(b, id, p) })
}

// LogFollow implements twitter.OpLog.
func (l *Log) LogFollow(target, follower twitter.UserID, at time.Time) (uint64, error) {
	return l.log(func(b []byte) []byte { return encodeEdge(b, recFollow, target, follower, at) })
}

// LogUnfollow implements twitter.OpLog.
func (l *Log) LogUnfollow(target, follower twitter.UserID, at time.Time) (uint64, error) {
	return l.log(func(b []byte) []byte { return encodeEdge(b, recUnfollow, target, follower, at) })
}

// LogPurge implements twitter.OpLog.
func (l *Log) LogPurge(target twitter.UserID, followers []twitter.UserID, at time.Time) (uint64, error) {
	return l.log(func(b []byte) []byte { return encodePurge(b, target, followers, at) })
}

// LogTweet implements twitter.OpLog.
func (l *Log) LogTweet(tw twitter.Tweet) (uint64, error) {
	return l.log(func(b []byte) []byte { return encodeTweet(b, tw) })
}

// LogSetFriends implements twitter.OpLog.
func (l *Log) LogSetFriends(id twitter.UserID, friends []twitter.UserID) (uint64, error) {
	return l.log(func(b []byte) []byte { return encodeSetFriends(b, id, friends) })
}

// Sync implements twitter.OpLog: it blocks until lsn is durable under the
// configured policy. The store calls it after releasing its locks.
func (l *Log) Sync(lsn uint64) error { return l.w.sync(lsn) }

// RecoveryStats returns what boot-time recovery did.
func (l *Log) RecoveryStats() RecoveryStats { return l.stats }

// LastLSN returns the newest appended LSN.
func (l *Log) LastLSN() uint64 { return l.w.records.Load() }

// Compact writes a snapshot of the store's current state and deletes the
// log behind it. The snapshot cut and the segment rotation happen inside
// the same store lock window (WriteSnapshotWith), so the new snapshot plus
// the segments after it hold exactly the full history; the write itself
// (the expensive part) runs concurrently with normal traffic, blocking
// only writers for the serialisation. The snapshot lands via tmp file,
// fsync, atomic rename, directory fsync.
func (l *Log) Compact() error {
	l.compactMu.Lock()
	defer l.compactMu.Unlock()
	start := time.Now()
	err := l.compact()
	if err != nil {
		l.compactErrs.Add(1)
		return err
	}
	l.compactions.Add(1)
	l.compactHist.Record(time.Since(start))
	return nil
}

func (l *Log) compact() error {
	var cut uint64
	err := publish(l.dir, func(f *os.File) (string, error) {
		err := l.st.WriteSnapshotWith(f, func() error {
			var rerr error
			cut, rerr = l.w.rotate()
			return rerr
		})
		return snapshotName(cut), err
	})
	if err != nil {
		return fmt.Errorf("wal: compacting: %w", err)
	}
	l.lastCompactLSN.Store(cut)
	return l.prune(cut)
}

// prune deletes snapshots older than cut and segments wholly behind it.
// Rotation put a segment boundary exactly at cut, so any segment starting
// at or before cut ends at or before it too.
func (l *Log) prune(cut uint64) error {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("wal: pruning: %w", err)
	}
	var firstErr error
	for _, e := range entries {
		stale := false
		if lsn, ok := parseSnapshotName(e.Name()); ok {
			stale = lsn < cut
		} else if start, ok := parseSegmentName(e.Name()); ok {
			stale = start <= cut
		}
		if !stale {
			continue
		}
		if err := os.Remove(filepath.Join(l.dir, e.Name())); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("wal: pruning: %w", err)
		}
	}
	return firstErr
}

// autoCompact watches the tail length and compacts once it exceeds every.
func (l *Log) autoCompact(every uint64) {
	defer l.wg.Done()
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-l.done:
			return
		case <-t.C:
			if l.w.records.Load()-l.lastCompactLSN.Load() >= every {
				// Failures are counted (wal_compaction_errors_total) and
				// retried next tick; a broken writer also fails appends,
				// which is where operators see it first.
				_ = l.Compact()
			}
		}
	}
}

// Close stops the auto-compactor and seals the current segment (flush +
// fsync under every policy). The store keeps serving reads afterwards;
// further mutations fail.
func (l *Log) Close() error {
	l.closeOnce.Do(func() {
		close(l.done)
		l.wg.Wait()
		l.closeErr = l.w.close()
	})
	return l.closeErr
}

// observe registers the wal_* instruments on reg (Open does, for
// Config.Metrics).
func (l *Log) observe(reg *metrics.Registry) {
	reg.CounterFunc("wal_records_total",
		"Records in the write-ahead log's history (the newest LSN).",
		func() float64 { return float64(l.w.records.Load()) })
	reg.CounterFunc("wal_bytes_total",
		"Framed bytes appended to the log by this process.",
		func() float64 { return float64(l.w.bytes.Load()) })
	reg.CounterFunc("wal_fsyncs_total",
		"Data fsyncs issued (group commits, rotations).",
		func() float64 { return float64(l.w.fsyncs.Load()) })
	reg.RegisterHistogram("wal_fsync_seconds",
		"Latency of log fsyncs; under -fsync always each one acknowledges a whole group-commit batch.",
		&l.w.fsyncHist)
	reg.CounterFunc("wal_compactions_total",
		"Completed log compactions (snapshot written, log truncated behind it).",
		func() float64 { return float64(l.compactions.Load()) })
	reg.CounterFunc("wal_compaction_errors_total",
		"Failed compaction attempts.",
		func() float64 { return float64(l.compactErrs.Load()) })
	reg.RegisterHistogram("wal_compaction_seconds",
		"Wall time of compactions: snapshot serialisation, fsync, rename, pruning.",
		&l.compactHist)
	reg.GaugeFunc("wal_tail_records",
		"Records appended since the newest snapshot — the replay debt a crash right now would incur.",
		func() float64 { return float64(l.w.records.Load() - l.lastCompactLSN.Load()) })
	reg.GaugeFunc("wal_log_bytes",
		"Bytes across live log segments on disk.",
		func() float64 { return dirBytes(l.dir, parseSegmentName) })
	reg.GaugeFunc("wal_snapshot_bytes",
		"Bytes across snapshots on disk (normally exactly one).",
		func() float64 { return dirBytes(l.dir, parseSnapshotName) })
	reg.GaugeFunc("wal_recovery_records",
		"Records replayed by this process's boot-time recovery.",
		func() float64 { return float64(l.stats.RecordsReplayed) })
	reg.GaugeFunc("wal_recovery_seconds",
		"Wall time of this process's boot-time recovery.",
		func() float64 { return l.stats.Elapsed.Seconds() })
	reg.GaugeFunc("wal_recovery_torn_tail",
		"1 if boot-time recovery abandoned a torn final record (crash signature), else 0.",
		func() float64 {
			if l.stats.TornTail {
				return 1
			}
			return 0
		})
}

// dirBytes sums the sizes of directory entries whose names parse.
func dirBytes(dir string, parse func(string) (uint64, bool)) float64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total float64
	for _, e := range entries {
		if _, ok := parse(e.Name()); !ok {
			continue
		}
		if info, err := e.Info(); err == nil {
			total += float64(info.Size())
		}
	}
	return total
}

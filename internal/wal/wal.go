// Package wal is the durability plane of the platform store: an append-only,
// CRC-framed, length-prefixed binary log of every store mutation, a
// group-commit writer that batches fsyncs, periodic compaction into the
// canonical snapshot format (the one version internal/twitter writes and
// reads), and crash recovery by snapshot load plus log-tail replay.
//
// A log directory holds three kinds of files:
//
//	wal-<startLSN>.log   segments: a 20-byte header (magic, format version,
//	                     the LSN of the segment's first record), then framed
//	                     records
//	snap-<LSN>.gob       store snapshots; <LSN> is the last record the
//	                     snapshot has folded in
//	snap.tmp             an in-flight compaction output (ignored, and
//	                     replaced, on the next compaction)
//
// Each record frame is: uint32 LE payload length, uint32 LE CRC-32C of the
// payload, payload. A record carries exactly one mutation — create, follow,
// unfollow, purge, tweet or set-friends — encoded with varints (record.go).
// LSNs number records 1, 2, ... across segment boundaries; segment wal-N
// holds records N, N+1, ... in order, so the file name alone places a
// segment in the history.
//
// Recovery (recover.go) loads the newest readable snapshot and replays every
// segment past it in LSN order, tolerating a torn tail — a partial or
// corrupt final frame, the signature of a crash mid-append. Under the
// "always" fsync policy every acknowledged op has been fsynced before its
// Sync returned, so the torn region is always unacknowledged territory and
// recovery provably restores the acknowledged prefix (the wal/crash
// deployment of the difftest oracle asserts it at every recovery).
//
// Compaction (Log.Compact) snapshots the store through
// twitter.WriteSnapshotWith, rotating to a fresh segment inside the store's
// snapshot lock window, so the snapshot and the segments after it partition
// the op history exactly; segments behind the snapshot are then deleted.
package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"fakeproject/internal/metrics"
	"fakeproject/internal/simclock"
	"fakeproject/internal/twitter"
)

// Policy says when appended records are fsynced to stable storage.
type Policy uint8

const (
	// PolicyAlways fsyncs before acknowledging each mutation. Concurrent
	// mutations share one fsync (group commit), so the cost is amortised
	// across the batch, not paid per op. Survives process and machine
	// crashes with zero acknowledged-op loss.
	PolicyAlways Policy = iota + 1
	// PolicyInterval acknowledges immediately and fsyncs on a fixed cadence
	// (Config.SyncEvery). A machine crash can lose up to one interval of
	// acknowledged ops; a clean process exit loses nothing.
	PolicyInterval
	// PolicyOff never fsyncs while running (the final Close still does).
	// The OS flushes the page cache whenever it likes; fastest, weakest.
	PolicyOff
)

// ParsePolicy maps the -fsync flag values to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "always":
		return PolicyAlways, nil
	case "interval", "":
		return PolicyInterval, nil
	case "off":
		return PolicyOff, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or off)", s)
}

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyAlways:
		return "always"
	case PolicyInterval:
		return "interval"
	case PolicyOff:
		return "off"
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// Config configures Open.
type Config struct {
	// Dir is the log directory. Created if absent.
	Dir string
	// Policy is the fsync policy; zero means PolicyInterval.
	Policy Policy
	// SyncEvery is the fsync cadence under PolicyInterval (and the flush
	// cadence under PolicyOff); zero means 100ms.
	SyncEvery time.Duration
	// CompactEvery, when nonzero, compacts automatically once that many
	// records have accumulated past the newest snapshot. Zero disables
	// automatic compaction; Compact can still be called explicitly.
	CompactEvery uint64
	// SeedSnapshot, when set, imports an external snapshot file (a genpop
	// -out artifact) into Dir before recovery. Dir must hold no prior WAL
	// state: the import is for bootstrapping a durable deployment from a
	// prebuilt population, not for merging histories.
	SeedSnapshot string
	// Clock/Seed configure the store exactly as for twitter.NewStore when
	// the directory starts empty; Clock (zero: simclock.Real) also binds
	// recovered stores.
	Clock simclock.Clock
	Seed  uint64
	// Metrics, when non-nil, receives the wal_* instruments at Open.
	Metrics *metrics.Registry
}

// Open recovers the store persisted in cfg.Dir (an empty or absent
// directory yields a fresh store), attaches a durable op log to it, and
// returns both plus what recovery did. Every mutation on the returned store
// is logged and — under the configured policy — fsynced before its call
// returns. Close the Log before process exit to seal the final segment.
func Open(cfg Config) (*twitter.Store, *Log, RecoveryStats, error) {
	if cfg.Dir == "" {
		return nil, nil, RecoveryStats{}, fmt.Errorf("wal: Config.Dir is required")
	}
	if cfg.Policy == 0 {
		cfg.Policy = PolicyInterval
	}
	if cfg.SyncEvery <= 0 {
		cfg.SyncEvery = 100 * time.Millisecond
	}
	clock := cfg.Clock
	if clock == nil {
		clock = simclock.Real{}
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, nil, RecoveryStats{}, fmt.Errorf("wal: creating %s: %w", cfg.Dir, err)
	}
	if cfg.SeedSnapshot != "" {
		if err := importSeedSnapshot(cfg, clock); err != nil {
			return nil, nil, RecoveryStats{}, err
		}
		// The imported store is garbage now, and recovery is about to load
		// a store of the same size whose records are one allocation: collect
		// the first before the second asks for fresh memory beside it.
		runtime.GC()
	}
	store, stats, err := recoverDir(cfg.Dir, clock, cfg.Seed)
	if err != nil {
		return nil, nil, RecoveryStats{}, err
	}
	w, err := openWriter(cfg.Dir, stats.LastLSN, cfg.Policy, cfg.SyncEvery)
	if err != nil {
		return nil, nil, RecoveryStats{}, err
	}
	l := &Log{
		dir:   cfg.Dir,
		w:     w,
		st:    store,
		stats: stats,
		done:  make(chan struct{}),
	}
	l.lastCompactLSN.Store(stats.SnapshotLSN)
	store.SetOpLog(l)
	if cfg.Metrics != nil {
		l.observe(cfg.Metrics)
	}
	if cfg.CompactEvery > 0 {
		// A long recovered tail means the last run crashed (or never
		// compacted); fold it down right away so the next crash replays a
		// short tail, then keep watching.
		if stats.LastLSN-stats.SnapshotLSN >= cfg.CompactEvery {
			if err := l.Compact(); err != nil {
				l.Close()
				return nil, nil, RecoveryStats{}, err
			}
		}
		l.wg.Add(1)
		go l.autoCompact(cfg.CompactEvery)
	}
	return store, l, stats, nil
}

// importSeedSnapshot copies an external snapshot into an empty log dir as
// the LSN-0 base snapshot (re-encoded canonically, fsynced, atomically
// renamed) so the imported population is durable in-dir from the first
// boot, not only after the first compaction.
func importSeedSnapshot(cfg Config, clock simclock.Clock) error {
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return fmt.Errorf("wal: reading %s: %w", cfg.Dir, err)
	}
	for _, e := range entries {
		if isWALFile(e.Name()) {
			return fmt.Errorf("wal: %s already holds WAL state (%s); refusing to import seed snapshot %s over it",
				cfg.Dir, e.Name(), cfg.SeedSnapshot)
		}
	}
	st, err := twitter.LoadSnapshotFile(cfg.SeedSnapshot, clock)
	if err != nil {
		return err
	}
	tmp := filepath.Join(cfg.Dir, "snap.tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: importing seed snapshot: %w", err)
	}
	err = st.WriteSnapshot(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(cfg.Dir, snapshotName(0)))
	}
	if err == nil {
		err = syncDir(cfg.Dir)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: importing seed snapshot: %w", err)
	}
	return nil
}

// isWALFile reports whether name is a file recovery would consider.
func isWALFile(name string) bool {
	_, okSeg := parseSegmentName(name)
	_, okSnap := parseSnapshotName(name)
	return okSeg || okSnap
}

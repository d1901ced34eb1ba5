package wal_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"fakeproject/internal/simclock"
	"fakeproject/internal/twitter"
	"fakeproject/internal/twitter/difftest"
	"fakeproject/internal/wal"
)

// walStore is a write-ahead-logged store as a difftest deployment: its
// Roundtrip closes the log (compacting first, or tearing the newest
// segment afterwards, per deployment), recovers the directory on a fresh
// clock, and fails unless recovery reached exactly the acknowledged LSN.
type walStore struct {
	*twitter.Store
	log            *wal.Log
	cfg            wal.Config
	compact, crash bool
}

func newWALStore(tb difftest.TB, policy wal.Policy, compact, crash bool) *walStore {
	w := &walStore{cfg: wal.Config{Dir: tb.TempDir(), Policy: policy, Seed: difftest.StoreSeed}, compact: compact, crash: crash}
	if _, err := w.open(); err != nil {
		tb.Fatalf("opening the log: %v", err)
	}
	return w
}

func (w *walStore) open() (stats wal.RecoveryStats, err error) {
	w.cfg.Clock = simclock.NewVirtualAtEpoch()
	w.Store, w.log, stats, err = wal.Open(w.cfg)
	return stats, err
}

func (w *walStore) Roundtrip() error {
	ack := w.log.LastLSN()
	if w.compact {
		if err := w.log.Compact(); err != nil {
			return err
		}
	}
	if err := w.log.Close(); err != nil {
		return err
	}
	if w.crash {
		// Under PolicyAlways every acknowledged record is already fsynced,
		// so a clean Close plus a torn frame on the live segment is the
		// on-disk shape of a SIGKILL mid-append.
		if err := appendTornFrame(w.cfg.Dir); err != nil {
			return err
		}
	}
	stats, err := w.open()
	switch {
	case err != nil:
		return err
	case stats.LastLSN != ack:
		return fmt.Errorf("recovered through record %d, acknowledged %d", stats.LastLSN, ack)
	case w.compact && (stats.SnapshotPath == "" || stats.SnapshotLSN != ack):
		// ack > 0 once anything was logged, so this asserts SnapshotLSN > 0.
		return fmt.Errorf("recovery started from snapshot %q at record %d, want the compaction at %d", stats.SnapshotPath, stats.SnapshotLSN, ack)
	case w.crash && !stats.TornTail:
		return errors.New("recovery did not report the torn tail")
	}
	return nil
}

func (w *walStore) Snapshot() ([]byte, error) { return nil, nil }
func (w *walStore) Close() error              { return w.log.Close() }

// appendTornFrame appends to the newest segment a frame header promising
// more payload than ever hit the disk, followed by noise.
func appendTornFrame(dir string) error {
	segs, err := filepath.Glob(filepath.Join(dir, "*.log"))
	if err != nil || len(segs) == 0 {
		return fmt.Errorf("no WAL segment in %s: %v", dir, err)
	}
	sort.Strings(segs) // fixed-width hex: lexical order == numeric order
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	var frame [8]byte
	binary.LittleEndian.PutUint32(frame[0:], 500) // claims 500 payload bytes
	binary.LittleEndian.PutUint32(frame[4:], 0xdeadbeef)
	_, err = f.Write(append(frame[:], make([]byte, 50)...)) // only 50 arrive
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func walDeployment(name string, policy wal.Policy, compact, crash bool) difftest.Deployment {
	return difftest.Deployment{Name: name, New: func(tb difftest.TB) difftest.Applier {
		return newWALStore(tb, policy, compact, crash)
	}}
}

// walDeployments are the three ways a logged store comes back: a clean
// reopen, a reopen from a fresh compaction, and recovery after a crash.
func walDeployments() []difftest.Deployment {
	return []difftest.Deployment{
		walDeployment("wal/interval", wal.PolicyInterval, false, false),
		walDeployment("wal/compacted", wal.PolicyInterval, true, false),
		walDeployment("wal/crash", wal.PolicyAlways, false, true),
	}
}

// TestKillDuringChurnRecovery is the durability acceptance test: generated
// churn streams replay against every WAL deployment in lockstep with the
// reference model, and each OpSnapshot in the stream closes and recovers
// the log — wal/crash through a torn tail — so every stream crosses dozens
// of recoveries, each of which must restore exactly the acknowledged
// prefix and keep serving pre-recovery pagination anchors.
func TestKillDuringChurnRecovery(t *testing.T) {
	n := 1500
	if testing.Short() {
		n = 500
	}
	for _, seed := range []uint64{1, 7, 23} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			difftest.Check(t, difftest.CheckConfig{Seed: seed, N: n, Deployments: walDeployments()})
		})
	}
}

// checkChurned replays the churned fixture as one preset stream over every
// deployment, diffing every op result and observation against Ref: a
// target loses every edge (it must report 0 followers, not its synthetic
// counter), another loses some, and a tweet lands 0.7 s into a second. A
// removal and a tweet `probe` from then follow, before and after a path back.
func checkChurned(t *testing.T, probe time.Duration) {
	const purged, target = 1, 2
	lastAt := simclock.Epoch.Add(700 * time.Millisecond)
	ops := []difftest.Op{
		{Kind: difftest.OpCreate, Params: twitter.UserParams{ScreenName: "purged", Followers: 500}},
		{Kind: difftest.OpCreate, Params: twitter.UserParams{ScreenName: "target"}},
	}
	followers := []twitter.UserID{3, 4, 5, 6}
	for _, f := range followers {
		ops = append(ops, difftest.Op{Kind: difftest.OpCreate})
		for _, tg := range []twitter.UserID{purged, target} {
			ops = append(ops, difftest.Op{Kind: difftest.OpFollow, Target: tg, Follower: f, At: simclock.Epoch.Add(-time.Hour)})
		}
	}
	tweet := func(at time.Time) difftest.Op {
		return difftest.Op{Kind: difftest.OpTweet, Target: target, Tweet: twitter.Tweet{CreatedAt: at, Text: "t", Source: "web"}}
	}
	probes := func(survivor twitter.UserID) []difftest.Op {
		return []difftest.Op{
			{Kind: difftest.OpPurge, Target: target, Purge: []twitter.UserID{survivor}, At: lastAt.Add(probe)},
			tweet(lastAt.Add(probe)),
			{Kind: difftest.OpPage, Target: target, FromSeq: twitter.SeqNewest, Limit: 3},
		}
	}
	ops = append(ops,
		difftest.Op{Kind: difftest.OpPurge, Target: purged, Purge: followers, At: lastAt},
		difftest.Op{Kind: difftest.OpPurge, Target: target, Purge: followers[:2], At: lastAt},
		tweet(lastAt))
	ops = append(append(append(ops, probes(followers[2])...), difftest.Op{Kind: difftest.OpSnapshot}), probes(followers[3])...)
	deps := append(difftest.InMemory(), walDeployments()...)
	difftest.Check(t, difftest.CheckConfig{Ops: ops, Deployments: deps, CheckEvery: 1})
}

// TestPurgedTargetSurvivesReload: the purged target reports 0 followers,
// and a removal and a tweet a second older than the newest are rejected
// (ErrNotMonotonic), before and after every path back.
func TestPurgedTargetSurvivesReload(t *testing.T) { checkChurned(t, -time.Second) }

// TestMonotonicityIsPerSecondAcrossReloads: snapshots and the log keep
// event times at the second, so a removal and a tweet 0.4 s earlier, in
// the same second, are accepted live exactly as after every path back.
func TestMonotonicityIsPerSecondAcrossReloads(t *testing.T) { checkChurned(t, -400*time.Millisecond) }

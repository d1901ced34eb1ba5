//fp:allow-file walltime the benchmark reports how long the fixture took to build

package main

import (
	"fmt"
	"os"
	"time"

	"fakeproject/internal/population"
	"fakeproject/internal/simclock"
	"fakeproject/internal/twitter"
)

// Fixture shape. Crawl targets follow a 1/k series so the follower lists
// stay heavy-tailed like the paper's testbed; audit targets are all the
// same size so one audit costs the same whichever target it lands on and
// audit latency has a single mode.
const (
	crawlTargets      = 16
	crawlTopFollowers = 400000
	auditTargets      = 8
	auditFollowers    = 20000
	targetStatuses    = 400

	fixtureInactivePct = 25.0
	fixtureFakePct     = 15.0
)

// target is one account the workloads aim at.
type target struct {
	Name      string
	ID        twitter.UserID
	Followers int
}

// fixture describes the seeded population every workload runs against. It
// is what the driver keeps once the store itself has been written out and
// dropped: enough to generate requests and to check replies.
type fixture struct {
	Seed     uint64
	Accounts int
	Crawl    []target
	Audit    []target
	// Snapshot is the canonical snapshot file the children load.
	Snapshot      string
	SnapshotBytes int64
	BuildSeconds  float64
	WriteSeconds  float64
}

// buildFixture builds the population for seed and writes its snapshot to
// path. The store is returned for the traced ladder, which works on it in
// process; the gated runs let it go before anything is timed.
func buildFixture(seed uint64, path string) (*fixture, *twitter.Store, error) {
	start := time.Now()
	store := twitter.NewStore(simclock.NewVirtualAtEpoch(), seed)
	gen := population.NewGenerator(store, seed)
	layout := population.Layout{{Mix: population.FromPercentages(
		fixtureInactivePct, fixtureFakePct, 100-fixtureInactivePct-fixtureFakePct)}}
	fx := &fixture{Seed: seed, Snapshot: path}
	build := func(name string, followers int) (target, error) {
		id, err := gen.BuildTarget(population.TargetSpec{
			ScreenName: name,
			Followers:  followers,
			Layout:     layout,
			Statuses:   targetStatuses,
		})
		if err != nil {
			return target{}, fmt.Errorf("building %s: %w", name, err)
		}
		return target{Name: name, ID: id, Followers: followers}, nil
	}
	for k := 0; k < crawlTargets; k++ {
		t, err := build(fmt.Sprintf("crawl_t%02d", k), crawlTopFollowers/(k+1))
		if err != nil {
			return nil, nil, err
		}
		fx.Crawl = append(fx.Crawl, t)
	}
	for k := 0; k < auditTargets; k++ {
		t, err := build(fmt.Sprintf("audit_t%02d", k), auditFollowers)
		if err != nil {
			return nil, nil, err
		}
		fx.Audit = append(fx.Audit, t)
	}
	fx.Accounts = store.UserCount()
	fx.BuildSeconds = time.Since(start).Seconds()

	start = time.Now()
	size, err := writeSnapshotFile(store, path)
	if err != nil {
		return nil, nil, err
	}
	fx.SnapshotBytes = size
	fx.WriteSeconds = time.Since(start).Seconds()
	return fx, store, nil
}

// writeSnapshotFile writes store's canonical snapshot to path and returns
// its size.
func writeSnapshotFile(store *twitter.Store, path string) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, fmt.Errorf("creating snapshot: %w", err)
	}
	defer f.Close()
	if err := store.WriteSnapshot(f); err != nil {
		return 0, fmt.Errorf("writing snapshot %s: %w", path, err)
	}
	info, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("sizing snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("closing snapshot %s: %w", path, err)
	}
	return info.Size(), nil
}

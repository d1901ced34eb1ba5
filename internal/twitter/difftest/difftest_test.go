package difftest

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"fakeproject/internal/simclock"
	"fakeproject/internal/twitter"
	"fakeproject/internal/wal"
)

// TestShardedStoreMatchesReference is the core differential proof: every
// in-memory deployment — the store, round-tripped through its snapshot, and
// the ring members range-loaded from it — replays randomized op streams in
// lockstep with the reference model, over five seeds. (The name predates
// the store's single lock.) Short mode (the CI race job) shortens the
// streams, not the seed list, and runs the seeds one at a time so the
// timing-sensitive tests of packages beside it keep a CPU.
func TestShardedStoreMatchesReference(t *testing.T) {
	n := 10_000
	if testing.Short() {
		n = 3_000
	}
	for seed := uint64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			if !testing.Short() {
				t.Parallel()
			}
			Check(t, CheckConfig{Seed: seed, N: n, Deployments: InMemory()})
		})
	}
}

// TestCelebrityRemovalsMatchReference runs removals against a follower list
// of more than three sealed blocks, which Generate's streams never grow:
// every in-memory deployment replays the Celebrity stream in lockstep with
// the reference model, so a removal that shares a block it should have
// re-sealed, or re-seals one wrongly, diverges on the next page.
func TestCelebrityRemovalsMatchReference(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			Check(t, CheckConfig{Seed: seed, Ops: Celebrity(seed), Deployments: InMemory(), CheckEvery: 500})
		})
	}
}

// buggyPager corrupts pagination anchors — an injected bug the harness must
// catch and shrink, proving the differential loop actually has teeth.
type buggyPager struct {
	*StoreApplier
}

func (b buggyPager) FollowersPage(target twitter.UserID, fromSeq uint64, limit int) (twitter.FollowerPage, error) {
	page, err := b.StoreApplier.FollowersPage(target, fromSeq, limit)
	if err == nil && page.NextSeq > 1 {
		page.NextSeq-- // skew every non-final anchor
	}
	return page, err
}

// droppingWAL is a write-ahead-logged store whose reopen loses the newest
// acknowledged record: it cuts the last byte off the newest segment before
// recovery, as a log that acknowledged an append before writing it would.
type droppingWAL struct {
	*twitter.Store
	log *wal.Log
	cfg wal.Config
}

func (w *droppingWAL) open() (err error) {
	w.Store, w.log, _, err = wal.Open(w.cfg)
	return err
}

func (w *droppingWAL) Roundtrip() error {
	if err := w.log.Close(); err != nil {
		return err
	}
	// The live segment always exists; fixed-width names sort newest last.
	segs, _ := filepath.Glob(filepath.Join(w.cfg.Dir, "*.log"))
	sort.Strings(segs)
	newest := segs[len(segs)-1]
	if fi, err := os.Stat(newest); err == nil && fi.Size() > 20 { // more than the header
		if err := os.Truncate(newest, fi.Size()-1); err != nil {
			return err
		}
	}
	return w.open()
}

func (w *droppingWAL) Snapshot() ([]byte, error) { return nil, nil }
func (w *droppingWAL) Close() error              { return w.log.Close() }

// TestHarnessCatchesInjectedBug proves the oracle has teeth: a corrupted
// pagination anchor and a log whose reopen drops the newest acknowledged
// record must each fail, shrunk to a short stream that names the deployment.
func TestHarnessCatchesInjectedBug(t *testing.T) {
	if testing.Short() {
		t.Skip("harness self-test with full shrink; run in the long tier")
	}
	for _, tc := range []struct {
		dep Deployment
		n   int
	}{
		{Deployment{Name: "store/buggy-pager", New: func(TB) Applier {
			return buggyPager{NewStoreApplier(StoreSeed)}
		}}, 4000},
		{Deployment{Name: "wal/drops-newest", New: func(tb TB) Applier {
			w := &droppingWAL{cfg: wal.Config{Dir: tb.TempDir(), Policy: wal.PolicyOff, Clock: simclock.NewVirtualAtEpoch(), Seed: StoreSeed}}
			if err := w.open(); err != nil {
				tb.Fatalf("opening the log: %v", err)
			}
			return w
		}}, 1500},
	} {
		m := CheckConfig{Seed: 77, N: tc.n, Deployments: []Deployment{tc.dep}}.find(t)
		if m == nil {
			t.Fatalf("%s: the oracle did not catch the injected bug", tc.dep.Name)
		}
		if m.Deployment != tc.dep.Name {
			t.Fatalf("failure names %q, want %q", m.Deployment, tc.dep.Name)
		}
		if len(m.Ops) == 0 || len(m.Ops) >= tc.n/10 {
			t.Fatalf("%s: shrink ineffective: %d ops from %d", tc.dep.Name, len(m.Ops), tc.n)
		}
		t.Logf("injected bug caught and shrunk %d -> %d ops: %s", tc.n, len(m.Ops), m)
	}
}

// genTargetStream builds a per-target op stream (no creates, no tweets —
// ops whose results stay deterministic when streams for different targets
// interleave) with per-target monotone event times.
func genTargetStream(seed int64, target twitter.UserID, users, n int) []Op {
	rng := rand.New(rand.NewSource(seed))
	now := simclock.Epoch
	advance := func() time.Time {
		now = now.Add(time.Duration(1+rng.Intn(120)) * time.Second)
		return now
	}
	follower := func() twitter.UserID { return twitter.UserID(1 + rng.Intn(users)) }
	ops := make([]Op, 0, n)
	for len(ops) < n {
		switch roll := rng.Intn(100); {
		case roll < 55:
			ops = append(ops, Op{Kind: OpFollow, Target: target, Follower: follower(), At: advance()})
		case roll < 65:
			ops = append(ops, Op{Kind: OpUnfollow, Target: target, Follower: follower(), At: advance()})
		case roll < 75:
			batch := make([]twitter.UserID, 1+rng.Intn(8))
			for i := range batch {
				batch[i] = follower()
			}
			ops = append(ops, Op{Kind: OpPurge, Target: target, Purge: batch, At: advance()})
		default:
			op := Op{Kind: OpPage, Target: target, FromSeq: twitter.SeqNewest, Limit: 1 + rng.Intn(30)}
			if rng.Intn(4) == 0 {
				op.FromSeq = rng.Uint64() % 500
			}
			ops = append(ops, op)
		}
	}
	return ops
}

// TestConcurrentWriters is the -race leg of the differential proof: 8
// goroutines drive disjoint target sets on ONE store, all through its one
// lock, while a chaos reader hammers batch profiles and snapshots.
// Per-target streams commute, so every op result and the final observable
// state must match a sequential replay into the reference model.
func TestConcurrentWriters(t *testing.T) {
	const (
		users      = 160
		numTargets = 16
		workers    = 8
	)
	perTarget := 400
	if testing.Short() {
		perTarget = 150
	}
	store := NewStoreApplier(21)
	ref := NewRef(simclock.NewVirtualAtEpoch())
	for i := 0; i < users; i++ {
		p := twitter.UserParams{
			CreatedAt: simclock.Epoch.AddDate(0, 0, -2-i%90),
			Statuses:  i % 40,
			Followers: i * 3 % 97,
			Bio:       i%2 == 0,
			Class:     twitter.Class(1 + i%3),
		}
		ida, errA := store.CreateUser(p)
		idb, errB := ref.CreateUser(p)
		if errA != nil || errB != nil || ida != idb {
			t.Fatalf("create %d: %v/%v %d/%d", i, errA, errB, ida, idb)
		}
	}
	streams := make([][]Op, numTargets)
	for ti := range streams {
		streams[ti] = genTargetStream(int64(1000+ti), twitter.UserID(ti+1), users, perTarget)
	}

	results := make([][]Result, numTargets)
	var writers sync.WaitGroup
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for ti := w; ti < numTargets; ti += workers {
				res := make([]Result, len(streams[ti]))
				for j, op := range streams[ti] {
					res[j] = Apply(store, op)
				}
				results[ti] = res
			}
		}(w)
	}
	// Chaos reader: batch reads and full-store snapshots racing
	// the writers. Results are not compared (they depend on interleaving);
	// the point is that they are race-free and never error.
	done := make(chan struct{})
	var chaos sync.WaitGroup
	chaos.Add(1)
	go func() {
		defer chaos.Done()
		probe := make([]twitter.UserID, 0, users)
		for id := twitter.UserID(1); int(id) <= users; id++ {
			probe = append(probe, id)
		}
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if got := store.Profiles(probe); len(got) != users {
				t.Errorf("batch profiles: %d of %d", len(got), users)
				return
			}
			if i%8 == 0 {
				if err := store.Store().WriteSnapshot(io.Discard); err != nil {
					t.Errorf("snapshot under load: %v", err)
					return
				}
			}
		}
	}()
	writersDone := make(chan struct{})
	go func() {
		writers.Wait()
		close(writersDone)
	}()
	select {
	case <-writersDone:
	case <-time.After(120 * time.Second):
		t.Fatal("concurrent writers did not finish")
	}
	close(done)
	chaos.Wait()
	if t.Failed() {
		return
	}

	// Sequential replay into the reference model must reproduce every
	// result the concurrent run observed.
	for ti := range streams {
		for j, op := range streams[ti] {
			rb := Apply(ref, op)
			if !reflect.DeepEqual(results[ti][j], rb) {
				t.Fatalf("target %d op %d (%s): concurrent %+v vs sequential %+v", ti+1, j, op, results[ti][j], rb)
			}
		}
	}
	ocfg := ObserveConfig{}
	oa, errA := Observe(store, ocfg)
	ob, errB := Observe(ref, ocfg)
	if errA != nil || errB != nil {
		t.Fatalf("observe: %v / %v", errA, errB)
	}
	Normalize(&oa, nil)
	Normalize(&ob, nil)
	if d := DiffObservations(oa, ob); d != "" {
		t.Fatalf("final state diverged: %s", d)
	}
}

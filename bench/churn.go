//fp:allow-file walltime the benchmark times real WAL opens and recoveries

package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"time"

	"fakeproject/internal/drand"
	"fakeproject/internal/metrics"
	"fakeproject/internal/simclock"
	"fakeproject/internal/twitter"
	"fakeproject/internal/wal"
)

// Shape of one churn tick on the celebrity target. A tick is a purchase
// burst plus the purge of the burst bought two ticks earlier — bursts, not
// a trickle of single follows, are this platform's normal write regime —
// beside an organic unfollow, a few tweets and a crawler's share of reads.
const (
	churnTarget = "crawl_t00"
	burstSize   = 4096
	tickTweets  = 4
	tickPages   = 32
	tickLookups = 8
	// Compactions run inside the timed phase, in the background as the
	// log's own CompactEvery trigger runs them, but at fixed tick numbers
	// instead of on that trigger's one-second poll: before every
	// compactEveryTicks-th tick since the worker started (about 525 000
	// records apart), one per compactPerSeconds of phase and no more. The
	// two seconds of warm-up hold 40 to 80 ticks, so every run of a given
	// length pays the same number of writer stalls, each at the same fill
	// of the log.
	compactEveryTicks = 128
	compactPerSeconds = 8
	// rssMarkTick is the tick, counted from the worker's start, after which
	// its VmHWM is read as the workload's peak memory. The worker's heap
	// grows by half a megabyte a tick (removed-edge logs, first follows of
	// bought accounts), so the peak at the end of a phase follows the
	// number of ticks the host let the phase run: 335 MiB after 480 ticks,
	// 450 after 680. The peak after a stated amount of work, two
	// compactions included, read 240 to 263 MiB in eighteen runs with an
	// interquartile spread of 2.4 %: the collector paces a heap that jumps
	// by tens of MB when a log of removed edges is copied to grow. A 16 s
	// phase on the slowest host seen (20 ticks/s) still reaches the mark.
	rssMarkTick = 288
	// churnGCPercent is the worker's GOGC. A collection marks 150 MB beside
	// the ticks, on the one CPU, and slows the three or so ticks it overlaps
	// by a third. At the default of 100 that is one tick in ten, so
	// latency_p90_ms sat on the boundary between the two kinds of tick and
	// read 29-32 ms in half the runs and 36-40 in the other half, whatever
	// the host did. At 50 it is one tick in five: p50 is a tick without a
	// collection, p90 a tick with one, and both repeat.
	churnGCPercent = 50
	// tailTicks run between the closing compaction and the recovery check,
	// so that recovery has both a snapshot to load and a log tail to replay.
	tailTicks = 8
)

// churner applies churn ticks to one store. The worker child runs it over
// the WAL-backed store; the traced ladder runs it over stores with and
// without a log and reads the per-step times.
type churner struct {
	store  *twitter.Store
	clock  *simclock.Virtual
	target twitter.UserID
	src    *drand.Source
	// organic is the id range of the followers the fixture gave the
	// target; pool is everyone else, the accounts a purchase draws from.
	organicLo, organicHi twitter.UserID
	poolLo, poolHi       twitter.UserID
	next                 twitter.UserID      // rotating purchase cursor
	bought               [2][]twitter.UserID // the last two bursts
	walk                 uint64              // follower-walk anchor
	// Times of the last tick's steps, for the ladder.
	addTime, purgeTime, unfollowTime, readTime time.Duration
}

func newChurner(store *twitter.Store, clock *simclock.Virtual, seed uint64) (*churner, error) {
	id, err := store.LookupName(churnTarget)
	if err != nil {
		return nil, err
	}
	organic, err := store.FollowerCount(id)
	if err != nil {
		return nil, err
	}
	c := &churner{
		store: store, clock: clock, target: id,
		src:       drand.New(seed).Fork("bench-churn"),
		organicLo: id + 1, organicHi: id + twitter.UserID(organic),
		poolHi: twitter.UserID(store.UserCount()),
		walk:   twitter.SeqNewest,
	}
	c.poolLo = c.organicHi + 1
	c.next = c.poolLo
	if int(c.poolHi-c.poolLo) < 4*burstSize {
		return nil, errors.New("fixture too small for churn bursts")
	}
	return c, nil
}

// tick runs one churn tick.
func (c *churner) tick() error {
	c.clock.Advance(time.Second)
	now := c.clock.Now()

	begin := time.Now()
	burst := make([]twitter.UserID, burstSize)
	for i := range burst {
		burst[i] = c.next
		if c.next++; c.next > c.poolHi {
			c.next = c.poolLo
		}
		if err := c.store.AddFollower(c.target, burst[i], now); err != nil {
			return fmt.Errorf("purchase: %w", err)
		}
	}
	c.addTime = time.Since(begin)

	begin = time.Now()
	if old := c.bought[0]; old != nil {
		n, err := c.store.RemoveFollowers(c.target, old, now)
		if err != nil {
			return fmt.Errorf("purge: %w", err)
		}
		if n != len(old) {
			return fmt.Errorf("purge removed %d of %d bought followers", n, len(old))
		}
	}
	c.bought[0], c.bought[1] = c.bought[1], burst
	c.purgeTime = time.Since(begin)

	begin = time.Now()
	leaver := c.organicLo + twitter.UserID(c.src.Int63n(int64(c.organicHi-c.organicLo+1)))
	if _, err := c.store.Unfollow(c.target, leaver, now); err != nil {
		return fmt.Errorf("unfollow: %w", err)
	}
	c.unfollowTime = time.Since(begin)

	for i := 0; i < tickTweets; i++ {
		if _, err := c.store.AppendTweet(c.target, twitter.Tweet{CreatedAt: now, Text: "churn", Source: "api"}); err != nil {
			return fmt.Errorf("tweet: %w", err)
		}
	}

	begin = time.Now()
	var page twitter.FollowerPage
	for i := 0; i < tickPages; i++ {
		var err error
		if page, err = c.store.FollowersPage(c.target, c.walk, followersPageSize); err != nil {
			return fmt.Errorf("page: %w", err)
		}
		if len(page.IDs) == 0 {
			return errors.New("page: empty follower page on a populated target")
		}
		if c.walk = page.NextSeq; c.walk == 0 {
			c.walk = twitter.SeqNewest
		}
	}
	for i := 0; i < tickLookups && (i+1)*100 <= len(page.IDs); i++ {
		if got := c.store.Profiles(page.IDs[i*100 : (i+1)*100]); len(got) != 100 {
			return fmt.Errorf("lookup returned %d of 100 profiles", len(got))
		}
	}
	c.readTime = time.Since(begin)
	return nil
}

// storeFingerprint is what recovery must reproduce: the account count, the
// target's follower count and a hash of its whole follower walk.
type storeFingerprint struct {
	Users     int    `json:"users"`
	Followers int    `json:"followers"`
	WalkHash  string `json:"walk_fnv64a"`
}

func fingerprint(store *twitter.Store, target twitter.UserID) (storeFingerprint, error) {
	fp := storeFingerprint{Users: store.UserCount()}
	var err error
	if fp.Followers, err = store.FollowerCount(target); err != nil {
		return fp, err
	}
	h := fnv.New64a()
	for seq := twitter.SeqNewest; seq != 0; {
		page, err := store.FollowersPage(target, seq, followersPageSize)
		if err != nil {
			return fp, err
		}
		for _, id := range page.IDs {
			fmt.Fprintf(h, "%d,", id)
		}
		seq = page.NextSeq
	}
	fp.WalkHash = fmt.Sprintf("%016x", h.Sum64())
	return fp, nil
}

func openChurnWAL(dir, seedSnapshot string, seed uint64, reg *metrics.Registry, policy wal.Policy) (*twitter.Store, *wal.Log, *simclock.Virtual, wal.RecoveryStats, error) {
	clock := simclock.NewVirtualAtEpoch()
	store, wlog, stats, err := wal.Open(wal.Config{
		Dir:          dir,
		Policy:       policy,
		SeedSnapshot: seedSnapshot,
		Clock:        clock,
		Seed:         seed,
		Metrics:      reg,
	})
	return store, wlog, clock, stats, err
}

// workerReply is one line the worker writes back.
type workerReply struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// Metrics answers "stats": the worker's wal_* registry.
	Metrics *metrics.SnapshotJSON `json:"metrics,omitempty"`
	// RecoverySeconds and RecoveredRecords answer "verify".
	RecoverySeconds  float64 `json:"recovery_s,omitempty"`
	RecoveredRecords uint64  `json:"recovered_records,omitempty"`
}

// churnWorker is the churn-wal system under test, run as a child process
// because the repository has no wire write path: it opens a WAL seeded from
// the fixture and then obeys one-word commands on stdin, answering each with
// one JSON line. "tick" runs a churn tick; "compact-bg" starts a compaction
// beside the ticks and answers at once, "wait" answers when it has ended;
// "settle" collects and returns freed memory; "stats" reports the wal_*
// registry; "verify" recovers the directory and compares. The first line
// the worker writes reports that the store is open.
func churnWorker(dir, fixture string, seed uint64, in io.Reader, out io.Writer) error {
	debug.SetGCPercent(churnGCPercent)
	reg := metrics.NewRegistry()
	store, wlog, clock, _, err := openChurnWAL(dir, fixture, seed, reg, wal.PolicyInterval)
	if err != nil {
		return err
	}
	defer func() { wlog.Close() }()
	c, err := newChurner(store, clock, seed)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	if err := enc.Encode(workerReply{OK: true}); err != nil {
		return err
	}
	// background receives the outcome of the compaction in flight, if any.
	var background chan error
	wait := func() error {
		if background == nil {
			return nil
		}
		err := <-background
		background = nil
		return err
	}
	lines := bufio.NewScanner(in)
	for lines.Scan() {
		var reply workerReply
		var err error
		switch cmd := strings.TrimSpace(lines.Text()); cmd {
		case "tick":
			err = c.tick()
		case "compact-bg":
			if err = wait(); err == nil {
				background = make(chan error, 1)
				go func(done chan<- error) { done <- wlog.Compact() }(background)
			}
		case "wait":
			err = wait()
		case "settle":
			debug.FreeOSMemory() // collects, then returns freed pages
		case "stats":
			snap := reg.Snapshot()
			reply.Metrics = &snap
		case "verify":
			if err = wait(); err == nil {
				reply, err = verifyRecovery(dir, seed, store, wlog, c.target)
			}
		default:
			err = fmt.Errorf("unknown command %q", cmd)
		}
		reply.OK = err == nil
		if err != nil {
			reply.Error = err.Error()
		}
		if err := enc.Encode(reply); err != nil {
			return err
		}
	}
	return lines.Err()
}

// verifyRecovery closes the log, recovers the directory into a second store
// and requires it to equal the live one.
func verifyRecovery(dir string, seed uint64, live *twitter.Store, wlog *wal.Log, target twitter.UserID) (workerReply, error) {
	var reply workerReply
	want, err := fingerprint(live, target)
	if err != nil {
		return reply, err
	}
	if err := wlog.Close(); err != nil {
		return reply, fmt.Errorf("closing the log: %w", err)
	}
	begin := time.Now()
	recovered, relog, _, stats, err := openChurnWAL(dir, "", seed, nil, wal.PolicyInterval)
	if err != nil {
		return reply, fmt.Errorf("recovering: %w", err)
	}
	reply.RecoverySeconds = time.Since(begin).Seconds()
	reply.RecoveredRecords = stats.RecordsReplayed
	defer relog.Close()
	got, err := fingerprint(recovered, target)
	if err != nil {
		return reply, err
	}
	if got != want {
		return reply, fmt.Errorf("recovered store is %+v, live store was %+v", got, want)
	}
	return reply, nil
}

// churnSession drives the worker child one tick per operation.
type churnSession struct {
	env      *runEnv
	worker   *child
	dir      string // the worker's WAL directory
	before   metrics.SnapshotJSON
	beganAt  time.Time
	cpuStart []procUsage
	hung     bool    // a reply timed out; the pipe is no longer usable
	timed    bool    // inside the timed phase
	ticks    int     // ticks since the worker started
	compacts int     // compactions the timed phase has started
	rssMark  float64 // VmHWM after rssMarkTick ticks
}

func startChurn(env *runEnv) (session, error) {
	// Every start seeds a fresh directory: wal.Open refuses to import a
	// seed snapshot over existing log state.
	env.walDirs++
	dir := filepath.Join(env.workDir, fmt.Sprintf("wal-%d", env.walDirs))
	w, err := env.jan.start("churn-worker", env.logDir, env.self, true,
		"-churn-worker", dir, "-fixture", env.fx.Snapshot, "-seed", fmt.Sprint(env.fx.Seed))
	if err != nil {
		return nil, err
	}
	s := &churnSession{env: env, worker: w, dir: dir}
	if _, err := s.read(startTimeout); err != nil {
		return nil, fmt.Errorf("churn worker did not open its store: %w", err)
	}
	return s, nil
}

// read returns the worker's next reply, or an error after timeout.
func (s *churnSession) read(timeout time.Duration) (workerReply, error) {
	type result struct {
		line []byte
		err  error
	}
	got := make(chan result, 1)
	go func() {
		line, err := s.worker.stdout.ReadBytes('\n')
		got <- result{line, err}
	}()
	var reply workerReply
	select {
	case r := <-got:
		if r.err != nil {
			return reply, fmt.Errorf("reading the worker's reply: %w", r.err)
		}
		if err := json.Unmarshal(r.line, &reply); err != nil {
			return reply, fmt.Errorf("worker reply %q: %w", r.line, err)
		}
		if !reply.OK {
			return reply, errors.New(reply.Error)
		}
		return reply, nil
	case <-time.After(timeout):
		// The reader above still owns the pipe, so no later call may
		// read it: the session stays failed.
		s.hung = true
		return reply, errors.New("worker timed out")
	}
}

// call sends one command. A tick is an operation and gets the request
// timeout; opening, compacting and recovering a store get the longer one.
func (s *churnSession) call(cmd string) (workerReply, error) {
	if s.hung {
		return workerReply{}, errors.New("worker timed out earlier")
	}
	if _, err := io.WriteString(s.worker.stdin, cmd+"\n"); err != nil {
		return workerReply{}, err
	}
	if cmd == "tick" {
		return s.read(requestTimeout)
	}
	return s.read(startTimeout)
}

func (s *churnSession) servers() []*child { return []*child{s.worker} }

// stop ends the worker and removes its directory: every start seeds a new
// 64 MB one.
func (s *churnSession) stop() {
	s.worker.stop()
	os.RemoveAll(s.dir)
}

// peakRSS is the worker's VmHWM after rssMarkTick ticks, or now when the
// phase was too slow to get there. Either way it is read before finish,
// whose recovery check holds a second store in the same process.
func (s *churnSession) peakRSS() (float64, error) {
	if s.rssMark == 0 {
		var err error
		if s.rssMark, err = peakOf(s.servers()); err != nil {
			return 0, err
		}
	}
	return s.rssMark, nil
}

// betweenOps reads the memory mark; the run protocol calls it after an
// operation's time has been taken.
func (s *churnSession) betweenOps() {
	if s.ticks == rssMarkTick {
		_, _ = s.peakRSS() // a failed read is retried, and reported, at the end of the phase
	}
}

// verify has nothing to replay before the timed phase: the check of this
// workload is recovery, which must come after the writes (see finish).
func (s *churnSession) verify() error { return nil }

// op is one tick; inside the timed phase the ticks named by the compaction
// schedule first set a background compaction going.
func (s *churnSession) op() bool {
	s.ticks++
	if s.timed && s.ticks%compactEveryTicks == 0 && s.compacts < s.env.seconds/compactPerSeconds {
		if _, err := s.call("compact-bg"); err != nil {
			return false
		}
		s.compacts++
	}
	_, err := s.call("tick")
	return err == nil
}

func (s *churnSession) stats() (metrics.SnapshotJSON, error) {
	reply, err := s.call("stats")
	if err != nil || reply.Metrics == nil {
		return metrics.SnapshotJSON{}, fmt.Errorf("worker stats: %v", err)
	}
	return *reply.Metrics, nil
}

func (s *churnSession) beginTimed() error {
	if s.ticks >= compactEveryTicks {
		return fmt.Errorf("the warm-up ran %d ticks; the compaction schedule and the memory mark assume fewer than %d", s.ticks, compactEveryTicks)
	}
	var err error
	if s.before, err = s.stats(); err != nil {
		return err
	}
	s.beganAt = time.Now()
	s.cpuStart, err = usageOf(s.servers())
	s.timed = true
	return err
}

func (s *churnSession) endTimed(attempted int) (map[string]float64, error) {
	s.timed = false
	elapsed := time.Since(s.beganAt).Seconds()
	out := map[string]float64{}
	var err error
	if out["churn.cpu_ms_per_op"], err = cpuDelta(s.servers(), s.cpuStart, attempted); err != nil {
		return nil, err
	}
	if out["churn.peak_rss_mb"], err = s.peakRSS(); err != nil {
		return nil, err
	}
	// A compaction the phase started may still be writing; its count and
	// time belong to the phase.
	if _, err := s.call("wait"); err != nil {
		return nil, fmt.Errorf("compacting: %w", err)
	}
	after, err := s.stats()
	if err != nil {
		return nil, err
	}
	out["wal.fsyncs_per_s"] = counterDelta(s.before, after, "wal_fsyncs_total", nil) / elapsed
	for _, f := range after.Families {
		if f.Name == "wal_fsync_seconds" && len(f.Series) == 1 && f.Series[0].P50 != nil {
			out["wal.fsync_p50_ms"] = *f.Series[0].P50 * 1000
		}
	}
	out["wal.compactions"] = counterDelta(s.before, after, "wal_compactions_total", nil)
	mean, _ := histMeanDelta(s.before, after, "wal_compaction_seconds", nil)
	out["wal.compaction_s_mean"] = mean / 1e6
	return out, nil
}

// finish is this workload's correctness check: everything the ticks wrote
// must come back from a compacted snapshot plus a replayed log tail. The
// closing compaction keeps that tail short (replaying a tick costs what
// running it did). Before it the worker's settled memory is read: what it
// retains once the garbage of the phase is collected.
func (s *churnSession) finish() (map[string]float64, error) {
	if _, err := s.call("settle"); err != nil {
		return nil, err
	}
	u, err := s.worker.usage()
	if err != nil {
		return nil, err
	}
	out := map[string]float64{"churn.settled_rss_mb": u.RSSMiB}
	for _, cmd := range []string{"compact-bg", "wait"} {
		if _, err := s.call(cmd); err != nil {
			return out, fmt.Errorf("compacting: %w", err)
		}
	}
	for i := 0; i < tailTicks; i++ {
		if _, err := s.call("tick"); err != nil {
			return out, fmt.Errorf("tick after compaction: %w", err)
		}
	}
	_, err = s.call("verify")
	return out, err
}

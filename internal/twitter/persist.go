package twitter

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"fakeproject/internal/simclock"
)

func unixUTC(sec int64) time.Time { return time.Unix(sec, 0).UTC() }

// Snapshot persistence: a Store can be serialised and reloaded so that
// expensive populations (the full testbed is ~1.5M accounts) can be built
// once and reused across processes — e.g. `genpop -out pop.gob` feeding
// `twitterd -load pop.gob`. The format is versioned gob.

// snapshotVersion is the one format this build writes and reads: a
// streamed, segment-framed, canonical encoding. The stream opens with a
// header value (the snapshot struct: seeds, clock position, explicit names
// sorted by ID, and the framing counts), followed by records in fixed-size
// chunks and then one value per target in ascending ID order; live edges
// ride as a delta-varint byte stream (EdgeStream, see edgeseg.go for the
// codec). Writer and reader hold one chunk/target in memory at a time,
// so a 10M-account snapshot costs bounded memory beyond
// the store itself. Nothing is emitted in shard or map order and the chunk
// cuts are fixed, so two stores holding the same logical state produce
// byte-identical snapshots regardless of their shard counts — the property
// the differential harness asserts — and any snapshot loads into a store
// with any shard count.
//
// A header carrying any other version — older or newer — is rejected as
// ErrBadSnapshot: populations are regenerated bit for bit by genpop -seed,
// so no reader for a format no writer emits is kept.
const snapshotVersion = 6

// recordChunkLen is the fixed record-chunk size of the stream. Fixed so the
// chunk cuts — and therefore the bytes — never depend on anything but the
// logical state; sized to hold writer memory at a few MB per chunk.
const recordChunkLen = 1 << 16

// ErrBadSnapshot reports a snapshot that cannot be loaded.
var ErrBadSnapshot = errors.New("twitter: invalid snapshot")

// persistRecord mirrors the unexported record struct with exported fields
// for gob.
type persistRecord struct {
	CreatedAt   int64
	LastTweetAt int64
	Statuses    int32
	Friends     int32
	Followers   int32
	Seed        uint32
	Flags       uint8
	Class       uint8
	RetweetPct  uint8
	LinkPct     uint8
	SpamPct     uint8
	DupPct      uint8
}

type persistTweet struct {
	ID        int64
	CreatedAt int64
	Text      string
	IsRetweet bool
	HasLink   bool
	IsReply   bool
	Mentions  int32
	Hashtags  int32
	Source    string
}

type persistTarget struct {
	ID      int64
	Tweets  []persistTweet
	Friends []int64
	// FriendsSet marks a materialised friend list. gob drops empty slices,
	// so without it a list set to empty would load back as "never
	// materialised" and the friends count would snap back to the synthetic
	// counter.
	FriendsSet bool
	// SeqCounter is the last edge seq handed out. Loading must resume the
	// counter above every seq ever assigned so post-load follows keep seqs
	// unique and increasing.
	SeqCounter uint64
	// EdgeN/EdgeStream carry the live edges as one chained delta-varint
	// stream (see edgeseg.go for the codec).
	EdgeN      int64
	EdgeStream []byte
	// Ever marks a target that ever held an edge, live now or since
	// removed: its materialised follower count is authoritative even at
	// zero, where a target promoted by tweets or friends alone keeps its
	// synthetic counter.
	Ever bool
	// RemovedAt is the unix second of the newest removal (0 = none), the
	// floor later removals are checked against.
	RemovedAt int64
}

// persistName is one explicit screen-name registration.
type persistName struct {
	ID   int64
	Name string
}

// snapshot is the stream header.
type snapshot struct {
	Version  int
	NameSeed uint64
	TweetSeq int64
	// NameList carries explicit screen names sorted by ID.
	NameList []persistName
	// ClockUnix is the store clock's position at snapshot time. An evolved
	// population's edge timestamps run up to this instant, so a reader must
	// resume at or after it for further growth/churn to stay monotonic.
	ClockUnix int64
	// RecordN/TargetN are the stream framing counts: how many records (in
	// chunks of recordChunkLen) and then target values follow the header.
	RecordN int64
	TargetN int64
}

// WriteSnapshot serialises the full store state. Creation is quiesced and
// every shard is read-locked (in index order) for the duration, so the
// snapshot is a consistent cut. The encoding is canonical: records, names
// and targets are emitted in ascending ID order, never in shard or map
// order, with fixed chunk cuts, so equal logical state yields equal bytes
// for any shard count.
func (s *Store) WriteSnapshot(w io.Writer) error {
	return s.WriteSnapshotWith(w, nil)
}

// WriteSnapshotWith is WriteSnapshot with a cut hook: atCut runs once
// creation is quiesced and every shard is locked — the exact logical
// instant the snapshot captures — before any state is serialised. WAL
// compaction rotates its log segment there, so the snapshot and the
// post-cut segments partition the op history with no overlap and no gap.
// An atCut error aborts the snapshot before anything is written.
//
// The write streams: header, then records in fixed chunks, then one value
// per target, holding one chunk/target in encoded form at a time. All
// routing uses the non-counting shard accessor, so a snapshot leaves the
// operator-facing shard-heat counters exactly where platform traffic put
// them.
func (s *Store) WriteSnapshotWith(w io.Writer, atCut func() error) error {
	return s.writeSnapshot(w, atCut, nil)
}

// writeSnapshot is the shared writer behind WriteSnapshotWith and
// WriteSnapshotRange: keep, when non-nil, filters which targets' heavy
// state is emitted (records and names always cover the full account space,
// so the stream stays a loadable snapshot).
func (s *Store) writeSnapshot(w io.Writer, atCut func() error, keep func(UserID) bool) error {
	s.createMu.Lock()
	defer s.createMu.Unlock()
	s.rlockAll()
	defer s.runlockAll()
	if atCut != nil {
		if err := atCut(); err != nil {
			return fmt.Errorf("snapshot cut: %w", err)
		}
	}

	n := int(s.users.Load())
	var targetIDs []int64
	for si := range s.shards {
		for id := range *s.shards[si].targets.Load() {
			if keep != nil && !keep(id) {
				continue
			}
			targetIDs = append(targetIDs, int64(id))
		}
	}
	sort.Slice(targetIDs, func(i, j int) bool { return targetIDs[i] < targetIDs[j] })
	hdr := snapshot{
		Version:   snapshotVersion,
		NameSeed:  s.nameSeed.Seed(),
		TweetSeq:  s.tweetSeq.Load(),
		ClockUnix: s.clock.Now().Unix(),
		RecordN:   int64(n),
		TargetN:   int64(len(targetIDs)),
	}
	for si := range s.shards {
		for id, name := range s.shards[si].names {
			hdr.NameList = append(hdr.NameList, persistName{ID: int64(id), Name: name})
		}
	}
	sort.Slice(hdr.NameList, func(i, j int) bool { return hdr.NameList[i].ID < hdr.NameList[j].ID })

	bw := bufio.NewWriter(w)
	enc := gob.NewEncoder(bw)
	//fp:allow lockhold the snapshot must serialise a consistent cut, so encoding runs under the store locks by design (audited: readers stay live, writers stall for the dump)
	if err := enc.Encode(hdr); err != nil {
		return fmt.Errorf("encoding snapshot header: %w", err)
	}
	chunk := make([]persistRecord, 0, min(n, recordChunkLen))
	flushChunk := func() error {
		if len(chunk) == 0 {
			return nil
		}
		//fp:allow lockhold record chunks stream out under the same consistent-cut locks as the header
		err := enc.Encode(chunk)
		chunk = chunk[:0]
		return err
	}
	for i := 0; i < n; i++ {
		id := UserID(i + 1)
		r := &s.shardOf(id).recs[s.slotFor(id)]
		chunk = append(chunk, persistRecord{
			CreatedAt:   r.createdAt,
			LastTweetAt: r.lastTweetAt,
			Statuses:    r.statuses,
			Friends:     r.friends,
			Followers:   r.followers,
			Seed:        r.seed,
			Flags:       r.flags,
			Class:       r.class,
			RetweetPct:  r.retweetPct,
			LinkPct:     r.linkPct,
			SpamPct:     r.spamPct,
			DupPct:      r.dupPct,
		})
		if len(chunk) == recordChunkLen {
			if err := flushChunk(); err != nil {
				return fmt.Errorf("encoding snapshot records: %w", err)
			}
		}
	}
	if err := flushChunk(); err != nil {
		return fmt.Errorf("encoding snapshot records: %w", err)
	}
	for _, tid := range targetIDs {
		id := UserID(tid)
		td := s.shardOf(id).targetOf(id)
		v := td.edges.view()
		pt := persistTarget{ID: tid, SeqCounter: td.seq, EdgeN: int64(v.total), Ever: v.ever, RemovedAt: td.removedAt}
		if v.total > 0 {
			pt.EdgeStream = appendEdgeStream(make([]byte, 0, v.memBytes()), v)
		}
		pt.Tweets = make([]persistTweet, len(td.tweets))
		for i, tw := range td.tweets {
			pt.Tweets[i] = persistTweet{
				ID:        int64(tw.ID),
				CreatedAt: tw.CreatedAt.Unix(),
				Text:      tw.Text,
				IsRetweet: tw.IsRetweet,
				HasLink:   tw.HasLink,
				IsReply:   tw.IsReply,
				Mentions:  int32(tw.Mentions),
				Hashtags:  int32(tw.Hashtags),
				Source:    tw.Source,
			}
		}
		if fl := td.friends.Load(); fl != nil {
			pt.FriendsSet = true
			pt.Friends = make([]int64, len(*fl))
			for i, f := range *fl {
				pt.Friends[i] = int64(f)
			}
		}
		//fp:allow lockhold per-target values stream out under the same consistent-cut locks as the header
		if err := enc.Encode(pt); err != nil {
			return fmt.Errorf("encoding snapshot target %d: %w", tid, err)
		}
	}
	//fp:allow lockhold flush completes the consistent-cut write begun under the same locks
	return bw.Flush()
}

// LoadSnapshotFile opens and loads a snapshot file, translating the two
// failure modes an operator actually hits — wrong path, wrong/corrupt file —
// into errors that name the path and the version this build supports
// instead of surfacing a raw gob decode error.
func LoadSnapshotFile(path string, clock simclock.Clock, opts ...Option) (*Store, error) {
	return loadSnapshotFile(path, clock, nil, opts...)
}

// loadSnapshotFile is the open-and-translate step shared by
// LoadSnapshotFile and LoadSnapshotRangeFile.
func loadSnapshotFile(path string, clock simclock.Clock, keep func(UserID) bool, opts ...Option) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("twitter: opening snapshot: %w", err)
	}
	defer f.Close()
	store, err := readSnapshot(f, clock, keep, opts...)
	if err != nil {
		return nil, fmt.Errorf(
			"twitter: snapshot %s is not loadable: %w (this build writes and reads snapshot v%d only; regenerate with genpop if the file is another version or truncated)",
			path, err, snapshotVersion)
	}
	return store, nil
}

// ReadSnapshot reconstructs a Store from a snapshot, bound to the given
// clock. A virtual clock lagging behind the snapshot's recorded position
// is advanced to it, so an evolved population resumes where it left off
// instead of rejecting further growth/churn as non-monotonic.
//
// Options configure the reconstructed store exactly as for NewStore; the
// snapshot itself is shard-layout free, so a population written by a store
// with one shard count loads into a store with any other. The load routes
// through the non-counting shard accessor, so a boot-from-snapshot starts
// with all shard-heat counters at zero.
func ReadSnapshot(r io.Reader, clock simclock.Clock, opts ...Option) (*Store, error) {
	return readSnapshot(r, clock, nil, opts...)
}

// readSnapshot is the shared reader behind ReadSnapshot and
// ReadSnapshotRange: keep, when non-nil, selects which targets' heavy state
// is installed, with every target's observable override counts folded into
// its record first (see persist_range.go).
func readSnapshot(r io.Reader, clock simclock.Clock, keep func(UserID) bool, opts ...Option) (*Store, error) {
	dec := gob.NewDecoder(bufio.NewReader(r))
	var snap snapshot
	if err := dec.Decode(&snap); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("%w: version %d, this build reads only version %d (regenerate with genpop)",
			ErrBadSnapshot, snap.Version, snapshotVersion)
	}
	if snap.ClockUnix > 0 {
		if v, ok := clock.(*simclock.Virtual); ok {
			if at := unixUTC(snap.ClockUnix); at.After(v.Now()) {
				v.SetNow(at)
			}
		}
	}
	store := NewStore(clock, snap.NameSeed, opts...)
	store.tweetSeq.Store(snap.TweetSeq)

	if snap.RecordN < 0 {
		return nil, fmt.Errorf("%w: negative record count", ErrBadSnapshot)
	}
	n := int(snap.RecordN)
	store.Grow(n)
	for got := 0; got < n; {
		var chunk []persistRecord
		if err := dec.Decode(&chunk); err != nil {
			return nil, fmt.Errorf("%w: record chunk: %v", ErrBadSnapshot, err)
		}
		if len(chunk) == 0 || got+len(chunk) > n {
			return nil, fmt.Errorf("%w: record chunk framing", ErrBadSnapshot)
		}
		for i, pr := range chunk {
			installRecord(store, UserID(got+i+1), pr)
		}
		got += len(chunk)
	}
	// Publish each shard's backing and only then commit the count, the same
	// order creation uses.
	for si := range store.shards {
		if store.shards[si].recs != nil {
			store.shards[si].publishRecs()
		}
	}
	store.users.Store(int64(n))

	for _, pn := range snap.NameList {
		id := UserID(pn.ID)
		if pn.ID < 1 || int(pn.ID) > n {
			return nil, fmt.Errorf("%w: name %q for unknown user %d", ErrBadSnapshot, pn.Name, pn.ID)
		}
		sh := store.shardOf(id)
		if _, dup := sh.names[id]; dup {
			return nil, fmt.Errorf("%w: user %d named twice", ErrBadSnapshot, pn.ID)
		}
		stripe := store.stripeFor(pn.Name)
		if _, dup := stripe.byName[pn.Name]; dup {
			return nil, fmt.Errorf("%w: duplicate name %q", ErrBadSnapshot, pn.Name)
		}
		sh.names[id] = pn.Name
		stripe.byName[pn.Name] = id
	}

	if snap.TargetN < 0 {
		return nil, fmt.Errorf("%w: negative target count", ErrBadSnapshot)
	}
	for i := int64(0); i < snap.TargetN; i++ {
		var pt persistTarget
		if err := dec.Decode(&pt); err != nil {
			return nil, fmt.Errorf("%w: target value: %v", ErrBadSnapshot, err)
		}
		if keep != nil {
			if err := foldTargetCounts(store, &pt, n); err != nil {
				return nil, err
			}
			if !keep(UserID(pt.ID)) {
				continue
			}
		}
		if err := installTarget(store, &pt, n); err != nil {
			return nil, err
		}
	}
	return store, nil
}

// installRecord appends pr as id's record into its owning shard. IDs ascend
// across calls, so each shard's segment is filled in slot order by plain
// appends.
func installRecord(store *Store, id UserID, pr persistRecord) {
	sh := store.shardOf(id)
	sh.recs = append(sh.recs, record{
		createdAt:   pr.CreatedAt,
		lastTweetAt: pr.LastTweetAt,
		statuses:    pr.Statuses,
		friends:     pr.Friends,
		followers:   pr.Followers,
		seed:        pr.Seed,
		flags:       pr.Flags,
		class:       pr.Class,
		retweetPct:  pr.RetweetPct,
		linkPct:     pr.LinkPct,
		spamPct:     pr.SpamPct,
		dupPct:      pr.DupPct,
	})
}

// installTarget validates pt and installs it as a materialised target.
// n is the committed record count (follower range bound).
func installTarget(store *Store, pt *persistTarget, n int) error {
	if pt.ID < 1 || int(pt.ID) > n {
		return fmt.Errorf("%w: target %d out of range", ErrBadSnapshot, pt.ID)
	}
	td := &targetData{}
	var sealer edgeSealer
	var prevAt int64
	var prevSeq uint64
	if pt.EdgeN < 0 {
		return fmt.Errorf("%w: negative edge count for target %d", ErrBadSnapshot, pt.ID)
	}
	if pt.EdgeN > 0 && !pt.Ever {
		return fmt.Errorf("%w: target %d holds edges but is not marked as ever followed", ErrBadSnapshot, pt.ID)
	}
	err := decodeEdgeStream(pt.EdgeStream, int(pt.EdgeN), func(e segEdge) error {
		if e.follower < 1 || int64(e.follower) > int64(n) {
			return fmt.Errorf("%w: follower %d out of range", ErrBadSnapshot, e.follower)
		}
		if e.at < prevAt {
			return fmt.Errorf("%w: follow times not monotonic for target %d", ErrBadSnapshot, pt.ID)
		}
		if e.seq <= prevSeq {
			return fmt.Errorf("%w: edge seqs not increasing for target %d", ErrBadSnapshot, pt.ID)
		}
		prevAt, prevSeq = e.at, e.seq
		sealer.add(e)
		return nil
	})
	if err != nil {
		if errors.Is(err, errEdgeStream) {
			return fmt.Errorf("%w: edge stream of target %d: %v", ErrBadSnapshot, pt.ID, err)
		}
		return err
	}
	td.seq = pt.SeqCounter
	if td.seq < prevSeq {
		// A counter that lost a race with the log: resume above every seq
		// actually present.
		td.seq = prevSeq
	}
	for _, ptw := range pt.Tweets {
		td.tweets = append(td.tweets, Tweet{
			ID:        TweetID(ptw.ID),
			Author:    UserID(pt.ID),
			CreatedAt: unixUTC(ptw.CreatedAt),
			Text:      ptw.Text,
			IsRetweet: ptw.IsRetweet,
			HasLink:   ptw.HasLink,
			IsReply:   ptw.IsReply,
			Mentions:  int(ptw.Mentions),
			Hashtags:  int(ptw.Hashtags),
			Source:    ptw.Source,
		})
	}
	if pt.FriendsSet || pt.Friends != nil {
		fl := make([]UserID, len(pt.Friends))
		for i, f := range pt.Friends {
			fl[i] = UserID(f)
		}
		if len(fl) == 0 {
			fl = nil
		}
		td.friends.Store(&fl)
	}
	td.removedAt = pt.RemovedAt
	// A target that ever held an edge keeps the materialised count
	// authoritative; one promoted by tweets/friends alone keeps its
	// synthetic counter.
	if pt.Ever {
		td.edges.v.Store(sealer.finish(true))
	}
	sh := store.shardOf(UserID(pt.ID))
	if sh.targetOf(UserID(pt.ID)) != nil {
		return fmt.Errorf("%w: target %d appears twice", ErrBadSnapshot, pt.ID)
	}
	sh.putTarget(UserID(pt.ID), td)
	return nil
}

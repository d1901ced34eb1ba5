package twitter

import (
	"bufio"
	"encoding/binary"
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
// `twitterd -load pop.gob`. The format is versioned; gob frames its values.

// snapshotVersion is the one format this build writes and reads: a
// streamed, segment-framed, canonical encoding. The stream opens with a
// header value (the snapshot struct: seeds, clock position, explicit names
// sorted by ID, and the framing counts), followed by records in fixed-size
// chunks of fixed-width bytes (recordSize) and then one value per target in
// ascending ID order; live edges ride as the in-memory sealed blocks' bytes
// followed by the tail in the same codec (EdgeStream, see edgeseg.go). Both
// load by copy-and-validate: gob only frames the values, no record field is
// decoded by reflection and no edge block is re-encoded. Writer and reader
// hold one chunk/target in memory at a time, so a 10M-account snapshot
// costs bounded memory beyond the store itself. Nothing is emitted in shard or map order and the chunk
// cuts are fixed, so two stores holding the same logical state produce
// byte-identical snapshots regardless of their shard counts — the property
// the differential harness asserts — and any snapshot loads into a store
// with any shard count.
//
// A header carrying any other version — older or newer — is rejected as
// ErrBadSnapshot: populations are regenerated bit for bit by genpop -seed,
// so no reader for a format no writer emits is kept.
const snapshotVersion = 7

// recordChunkLen is the fixed record-chunk size of the stream. Fixed so the
// chunk cuts — and therefore the bytes — never depend on anything but the
// logical state; sized to hold writer memory at a few MB per chunk.
const recordChunkLen = 1 << 16

// ErrBadSnapshot reports a snapshot that cannot be loaded.
var ErrBadSnapshot = errors.New("twitter: invalid snapshot")

// recordSize is the wire width of one record in a record chunk, each chunk
// one gob []byte of k records: createdAt and lastTweetAt as i64; statuses,
// friends and followers as i32; seed as u32; then flags, class and the four
// pct fields as u8 — all little-endian, in that order.
const recordSize = 38

// appendRecord appends r's wire form to dst.
func appendRecord(dst []byte, r *record) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint64(dst, uint64(r.createdAt))
	dst = le.AppendUint64(dst, uint64(r.lastTweetAt))
	dst = le.AppendUint32(dst, uint32(r.statuses))
	dst = le.AppendUint32(dst, uint32(r.friends))
	dst = le.AppendUint32(dst, uint32(r.followers))
	dst = le.AppendUint32(dst, r.seed)
	return append(dst, r.flags, r.class, r.retweetPct, r.linkPct, r.spamPct, r.dupPct)
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
	// EdgeN/EdgeStream carry the live edges: the sealed blocks' bytes, then
	// the tail in the same codec (appendEdgeStream, edgeseg.go).
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
	chunk := make([]byte, 0, min(n, recordChunkLen)*recordSize)
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
		sh := s.shardOf(id)
		r := &sh.recs[s.slotFor(id)]
		if keep != nil {
			// A range export carries every target's counts in its record, as
			// ReadSnapshotRange folds them: the stream holds only the kept
			// targets, so the reader cannot fold the others.
			v := viewOf(sh, id, r)
			folded := *r
			folded.followers, folded.friends = int32(v.FollowersCount), int32(v.FriendsCount)
			r = &folded
		}
		chunk = appendRecord(chunk, r)
		if len(chunk) == recordChunkLen*recordSize {
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
func LoadSnapshotFile(path string, clock simclock.Clock) (*Store, error) {
	return loadSnapshotFile(path, clock, nil)
}

// loadSnapshotFile is the open-and-translate step shared by
// LoadSnapshotFile and LoadSnapshotRangeFile.
func loadSnapshotFile(path string, clock simclock.Clock, keep func(UserID) bool) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("twitter: opening snapshot: %w", err)
	}
	defer f.Close()
	store, err := readSnapshot(f, clock, keep)
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
	bound := streamBound(r) // before the buffered reader takes any of r
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
	// The shards are sized from RecordN before any record is read, so a
	// count the stream cannot hold is refused before it allocates.
	if bound >= 0 && snap.RecordN > bound/recordSize {
		return nil, fmt.Errorf("%w: %d records in a %d-byte stream", ErrBadSnapshot, snap.RecordN, bound)
	}
	n := int(snap.RecordN)
	store.Grow(n)
	var chunk []byte // reused: gob decodes a []byte into the capacity it finds
	for got := 0; got < n; {
		if err := dec.Decode(&chunk); err != nil {
			return nil, fmt.Errorf("%w: record chunk: %v", ErrBadSnapshot, err)
		}
		k := len(chunk) / recordSize
		if len(chunk)%recordSize != 0 || k == 0 || k > n-got {
			return nil, fmt.Errorf("%w: record chunk framing", ErrBadSnapshot)
		}
		for i := 0; i < k; i++ {
			installRecord(store, UserID(got+i+1), chunk[i*recordSize:(i+1)*recordSize])
		}
		got += k
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
		var pt persistTarget // fresh per target: installTarget keeps its EdgeStream
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

// streamBound returns an upper bound on the bytes r holds when r can tell —
// a regular file or an in-memory reader — and -1 when it cannot.
func streamBound(r io.Reader) int64 {
	switch r := r.(type) {
	case interface{ Len() int }:
		return int64(r.Len())
	case *os.File:
		if fi, err := r.Stat(); err == nil && fi.Mode().IsRegular() {
			return fi.Size()
		}
	}
	return -1
}

// installRecord appends the recordSize bytes b as id's record into its
// owning shard. IDs ascend across calls, so each shard's segment is filled
// in slot order by plain appends.
func installRecord(store *Store, id UserID, b []byte) {
	le := binary.LittleEndian
	sh := store.shardOf(id)
	sh.recs = append(sh.recs, record{
		createdAt:   int64(le.Uint64(b[0:])),
		lastTweetAt: int64(le.Uint64(b[8:])),
		statuses:    int32(le.Uint32(b[16:])),
		friends:     int32(le.Uint32(b[20:])),
		followers:   int32(le.Uint32(b[24:])),
		seed:        le.Uint32(b[28:]),
		flags:       b[32],
		class:       b[33],
		retweetPct:  b[34],
		linkPct:     b[35],
		spamPct:     b[36],
		dupPct:      b[37],
	})
}

// installTarget validates pt and installs it as a materialised target.
// n is the committed record count (follower range bound).
func installTarget(store *Store, pt *persistTarget, n int) error {
	if pt.ID < 1 || int(pt.ID) > n {
		return fmt.Errorf("%w: target %d out of range", ErrBadSnapshot, pt.ID)
	}
	td := &targetData{}
	if pt.EdgeN > 0 && !pt.Ever {
		return fmt.Errorf("%w: target %d holds edges but is not marked as ever followed", ErrBadSnapshot, pt.ID)
	}
	// pt.EdgeStream was decoded for this target alone, so the view may keep
	// its blocks' bytes in place.
	edges, err := loadEdgeStream(pt.EdgeStream, int(pt.EdgeN), int64(n))
	if err != nil {
		return fmt.Errorf("%w: edge stream of target %d: %v", ErrBadSnapshot, pt.ID, err)
	}
	// A counter that lost a race with the log resumes above every seq
	// actually present.
	td.seq = max(pt.SeqCounter, edges.newestSeq())
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
		td.edges.v.Store(edges)
	}
	// The store is unpublished while it loads, so the target map fills in
	// place: a copy-on-write insert per target would make loading quadratic.
	targets := *store.shardOf(UserID(pt.ID)).targets.Load()
	if targets[UserID(pt.ID)] != nil {
		return fmt.Errorf("%w: target %d appears twice", ErrBadSnapshot, pt.ID)
	}
	targets[UserID(pt.ID)] = td
	return nil
}

// Package twitter implements the simulated Twitter platform the reproduction
// runs against: users, tweets and chronologically ordered follow edges.
//
// Design constraints, in order of importance:
//
//  1. Follow edges of a target account are stored oldest-first and exposed
//     newest-first through the API layer, reproducing the behaviour the paper
//     verifies in Section IV-B ("all the new entries in all the lists of
//     followers were always added at the end").
//  2. Populations reach hundreds of thousands of follower accounts, so
//     follower profiles are stored as compact fixed-size records (~40 bytes)
//     and their screen names, bios and timelines are synthesised
//     deterministically from a per-user seed on demand. Follow edges are
//     delta-varint-encoded segments (edgeseg.go), a few bytes per edge
//     instead of a 40-byte struct, so follower lists scale to the ROADMAP's
//     10M-account populations.
//  3. Everything is reproducible from a single root seed and a virtual clock.
//  4. The store is lock-striped (see shard.go): state is sharded by account
//     ID so concurrent audits of different targets never serialise on a
//     global lock. Operations on a single account take one shard lock;
//     batch paths regroup their inputs per shard; snapshots lock all shards
//     in index order. The crawl-dominant reads — follower pages, follower
//     counts, the materialised friends list — are lock-free on top: edges
//     and friends are published RCU-style and read from frozen views.
//
// The ground-truth archetype of every account (genuine / inactive / fake) is
// retained in the store but deliberately NOT exposed through the API layer:
// analytics must infer it from observable features, exactly like their
// real-world counterparts. Evaluation code reads it via TrueClass.
package twitter

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"fakeproject/internal/simclock"
)

// UserID identifies an account. IDs are dense, assigned sequentially from 1.
type UserID int64

// TweetID identifies a tweet.
type TweetID int64

// Class is the ground-truth archetype of an account, used to build synthetic
// populations and to score classifiers. It is never exposed via the API.
type Class uint8

// Account archetypes. Start at 1 so the zero value is distinguishable as
// "unclassified" (Uber style guide: start enums at one).
const (
	// ClassGenuine is an authentic, engaged account ("someone who is
	// engaging with the platform - producing and sharing content").
	ClassGenuine Class = iota + 1
	// ClassInactive is an authentic but dormant account: never tweeted or
	// last tweet older than 90 days (the definition shared by the Fake
	// Project engine and Socialbakers).
	ClassInactive
	// ClassFake is an account created to inflate follower counts.
	ClassFake
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassGenuine:
		return "genuine"
	case ClassInactive:
		return "inactive"
	case ClassFake:
		return "fake"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// Behavior summarises the timeline of an account as coarse ratios in [0,1].
// Timelines are synthesised to match these ratios; the API's extended lookup
// payload exposes them (see DESIGN.md §5 "Extended lookup payloads").
type Behavior struct {
	// RetweetRatio is the fraction of the account's tweets that are retweets.
	RetweetRatio float64
	// LinkRatio is the fraction of tweets carrying a URL.
	LinkRatio float64
	// SpamRatio is the fraction of tweets containing spam phrases
	// ("diet", "make money", "work from home", ...).
	SpamRatio float64
	// DuplicateRatio is the fraction of tweets that are exact duplicates of
	// another tweet of the same account.
	DuplicateRatio float64
}

// User carries the profile fields of an account as the API exposes them.
type User struct {
	ID         UserID
	ScreenName string
	Name       string
	CreatedAt  time.Time
	Bio        string
	Location   string
	URL        string
	// DefaultProfileImage reports whether the account still shows the
	// default "egg" avatar (a Socialbakers fake criterion).
	DefaultProfileImage bool
	Protected           bool
	Verified            bool
}

// Profile is the denormalised view of an account returned by users/lookup:
// profile fields plus counters plus the last-tweet timestamp (real Twitter
// embeds the last status in the user object) plus behaviour ratios.
type Profile struct {
	User
	FollowersCount int
	FriendsCount   int
	StatusesCount  int
	// LastTweetAt is the time of the most recent tweet; zero if the account
	// has never tweeted.
	LastTweetAt time.Time
	Behavior    Behavior
}

// Tweet is a single status.
type Tweet struct {
	ID        TweetID
	Author    UserID
	CreatedAt time.Time
	Text      string
	IsRetweet bool
	HasLink   bool
	// IsReply reports whether the tweet is a reply to another account.
	IsReply  bool
	Mentions int
	Hashtags int
	// Source is the posting client ("web", "mobile", "api").
	Source string
}

// Follow is a directed follow edge with its creation time.
type Follow struct {
	Follower UserID
	At       time.Time
	// Seq is the edge's per-target sequence number, assigned monotonically
	// at append time and never reused. It anchors pagination: a crawl
	// resumed at a seq lands on the same edge no matter how many followers
	// joined or were purged in between.
	Seq uint64
}

// SeqNewest is the FollowersPage anchor requesting the newest edge — the
// "no anchor yet" sentinel a first page starts from.
const SeqNewest = ^uint64(0)

// flag bits packed into record.flags.
const (
	flagDefaultImage = 1 << iota
	flagHasBio
	flagHasLocation
	flagProtected
	flagVerified
	flagHasURL
)

// record is the compact storage form of a synthetic account (~40 bytes).
type record struct {
	createdAt   int64 // unix seconds
	lastTweetAt int64 // unix seconds; 0 = never tweeted
	statuses    int32
	friends     int32
	followers   int32 // synthetic count for non-target accounts
	seed        uint32
	flags       uint8
	class       uint8
	retweetPct  uint8 // 0..100
	linkPct     uint8
	spamPct     uint8
	dupPct      uint8
}

func (r *record) has(flag uint8) bool { return r.flags&flag != 0 }

// targetData is the rich state kept only for target accounts (the handful of
// accounts whose follower lists are actually materialised).
type targetData struct {
	// edges is the live follower list in compact segment form (edgeseg.go):
	// chronological, strictly increasing Seq, published RCU-style so pages
	// and counts read it with no shard lock. Edge times are stored at unix-
	// second resolution (the resolution snapshots always had), so the
	// follow-side monotonicity contract is per-second.
	edges  edgeList
	tweets []Tweet // chronological: oldest first
	// friends is the materialised friend list, newest first, published as a
	// frozen slice so the Feistel friends path reads it lock-free. nil until
	// SetFriends runs; a pointer to a nil slice records "set to empty".
	friends atomic.Pointer[[]UserID]
	// removedAt is the unix second of the newest removal (0 = none yet),
	// the floor later removals are checked against. Removals keep no other
	// trace: they publish the survivors as a new edge view.
	removedAt int64
	// seq is the last edge sequence number handed out for this target.
	// Removals never decrement it, so seqs are unique for a target's
	// lifetime and the segments stay sorted by Seq.
	seq uint64
}

// UserParams configures account creation. Zero values are meaningful
// (no bio, no tweets, zero friends...).
type UserParams struct {
	ScreenName string // empty = synthesised deterministically from the ID
	Name       string
	CreatedAt  time.Time
	LastTweet  time.Time // zero = never tweeted
	Statuses   int
	Friends    int
	// Followers is the *synthetic* follower count for non-target accounts;
	// for targets the materialised edge list overrides it.
	Followers           int
	Bio                 bool // whether the account filled in a bio
	Location            bool // whether the account filled in a location
	URL                 bool
	DefaultProfileImage bool
	Protected           bool
	Verified            bool
	Class               Class
	Behavior            Behavior
}

// ErrUnknownUser reports an operation on a user ID that does not exist.
var ErrUnknownUser = errors.New("twitter: unknown user")

// ErrUnknownName reports a screen-name lookup miss.
var ErrUnknownName = errors.New("twitter: unknown screen name")

// ErrNotMonotonic reports a follow, removal or tweet older than the newest
// one of its kind on the same account. Times are compared at unix-second
// resolution, the resolution snapshots and the write-ahead log keep.
var ErrNotMonotonic = errors.New("twitter: event time must be monotonically non-decreasing")

// ErrDuplicateName reports a screen name registered twice.
var ErrDuplicateName = errors.New("twitter: duplicate screen name")

func pct(f float64) uint8 {
	// NaN (a 0/0 behaviour ratio upstream) must map to 0 explicitly:
	// uint8(NaN*100 + 0.5) is platform-defined in Go.
	if math.IsNaN(f) || f <= 0 {
		return 0
	}
	if f >= 1 {
		return 100
	}
	return uint8(f*100 + 0.5)
}

// CreateUser adds an account and returns its ID. A failed creation (duplicate
// explicit name) consumes no ID: the name is checked before allocation, so
// IDs stay dense.
func (s *Store) CreateUser(p UserParams) (UserID, error) {
	id, lsn, err := s.createUser(p)
	if err != nil {
		return 0, err
	}
	return id, s.opSync(lsn)
}

func (s *Store) createUser(p UserParams) (UserID, uint64, error) {
	var flags uint8
	if p.DefaultProfileImage {
		flags |= flagDefaultImage
	}
	if p.Bio {
		flags |= flagHasBio
	}
	if p.Location {
		flags |= flagHasLocation
	}
	if p.Protected {
		flags |= flagProtected
	}
	if p.Verified {
		flags |= flagVerified
	}
	if p.URL {
		flags |= flagHasURL
	}
	var lastTweet int64
	if !p.LastTweet.IsZero() {
		lastTweet = p.LastTweet.Unix()
	}
	created := p.CreatedAt
	if created.IsZero() {
		created = s.clock.Now()
	}

	s.createMu.Lock()
	defer s.createMu.Unlock()
	var stripe *nameStripe
	if p.ScreenName != "" {
		stripe = s.stripeFor(p.ScreenName)
		stripe.mu.RLock()
		_, dup := stripe.byName[p.ScreenName]
		stripe.mu.RUnlock()
		if dup {
			return 0, 0, fmt.Errorf("%w: %q", ErrDuplicateName, p.ScreenName)
		}
	}
	id := UserID(s.users.Load() + 1)
	rec := record{
		createdAt:   created.Unix(),
		lastTweetAt: lastTweet,
		statuses:    int32(p.Statuses),
		friends:     int32(p.Friends),
		followers:   int32(p.Followers),
		seed:        uint32(s.nameSeed.SeedForN("user", int64(id))),
		flags:       flags,
		class:       uint8(p.Class),
		retweetPct:  pct(p.Behavior.RetweetRatio),
		linkPct:     pct(p.Behavior.LinkRatio),
		spamPct:     pct(p.Behavior.SpamRatio),
		dupPct:      pct(p.Behavior.DuplicateRatio),
	}
	// Log before the account is published: the log's create order equals ID
	// order, and CreatedAt is logged resolved so replay never re-reads the
	// clock.
	var lsn uint64
	if l := s.oplog; l != nil {
		logged := p
		logged.CreatedAt = created
		var err error
		if lsn, err = l.LogCreate(id, logged); err != nil {
			return 0, 0, fmt.Errorf("twitter: logging create: %w", err)
		}
	}
	// Creation is serialised and IDs are dense, so the owning shard's next
	// free slot is exactly this ID's slot: a plain append commits it. If the
	// append moves the backing array, the new backing is republished for
	// lock-free readers before the users counter commits the ID.
	sh := s.shardFor(id)
	sh.mu.Lock()
	oldCap := cap(sh.recs)
	sh.recs = append(sh.recs, rec)
	if cap(sh.recs) != oldCap {
		sh.publishRecs()
	}
	if p.ScreenName != "" {
		sh.names[id] = p.ScreenName
	}
	sh.mu.Unlock()
	// Publish existence only after the record is committed, and the name
	// only after that: LookupName never yields an ID whose profile is not
	// yet readable.
	s.users.Add(1)
	if stripe != nil {
		stripe.mu.Lock()
		stripe.byName[p.ScreenName] = id
		stripe.mu.Unlock()
	}
	return id, lsn, nil
}

// MustCreateUser is CreateUser for generator code paths where the only
// possible error is a programmer mistake (duplicate explicit name).
func (s *Store) MustCreateUser(p UserParams) UserID {
	id, err := s.CreateUser(p)
	if err != nil {
		panic(err)
	}
	return id
}

// UserCount returns the number of accounts in the store.
func (s *Store) UserCount() int {
	return int(s.users.Load())
}

// ScreenName returns the screen name of id, synthesising one if the account
// was created without an explicit name.
func (s *Store) ScreenName(id UserID) (string, error) {
	sh := s.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return s.screenNameIn(sh, id)
}

// screenNameIn resolves id's screen name within its owning shard; the
// caller must hold sh's lock.
func (s *Store) screenNameIn(sh *shard, id UserID) (string, error) {
	rec, err := s.recordIn(sh, id)
	if err != nil {
		return "", err
	}
	return sh.nameOf(id, rec), nil
}

// nameOf returns the explicit screen name of id, or the one synthesised
// from its record's seed. Caller must hold sh.mu.
func (sh *shard) nameOf(id UserID, rec *record) string {
	if name, ok := sh.names[id]; ok {
		return name
	}
	return synthScreenName(uint64(rec.seed))
}

// LookupName resolves an explicit screen name to a user ID.
// Synthetic (auto-generated) names are not indexed.
func (s *Store) LookupName(name string) (UserID, error) {
	stripe := s.stripeFor(name)
	stripe.mu.RLock()
	id, ok := stripe.byName[name]
	stripe.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownName, name)
	}
	return id, nil
}

// TrueClass returns the ground-truth archetype of id (evaluation only).
func (s *Store) TrueClass(id UserID) (Class, error) {
	sh := s.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	rec, err := s.recordIn(sh, id)
	if err != nil {
		return 0, err
	}
	return Class(rec.class), nil
}

// Profile materialises the full lookup view of an account.
func (s *Store) Profile(id UserID) (Profile, error) {
	sh := s.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return s.profileIn(sh, id)
}

// profileIn materialises id's profile within its owning shard; the caller
// must hold sh's lock. A profile is its attribute view (viewOf) plus the
// strings the view only records the presence of; everything either needs —
// record, explicit name, materialised follower count — lives in the same
// shard, so a profile is a single-shard read.
func (s *Store) profileIn(sh *shard, id UserID) (Profile, error) {
	rec, err := s.recordIn(sh, id)
	if err != nil {
		return Profile{}, err
	}
	name := sh.nameOf(id, rec)
	v := viewOf(sh, id, rec)
	p := Profile{
		User: User{
			ID:                  v.ID,
			ScreenName:          name,
			Name:                humanName(uint64(rec.seed)),
			CreatedAt:           v.Created(),
			DefaultProfileImage: v.DefaultProfileImage,
			Protected:           v.Protected,
			Verified:            v.Verified,
		},
		FollowersCount: v.FollowersCount,
		FriendsCount:   v.FriendsCount,
		StatusesCount:  v.StatusesCount,
		LastTweetAt:    v.LastTweet(),
		Behavior:       v.Behavior,
	}
	if v.HasBio {
		p.Bio = synthBio(uint64(rec.seed))
	}
	if v.HasLocation {
		p.Location = synthLocation(uint64(rec.seed))
	}
	if v.HasURL {
		p.URL = "http://example.com/" + name
	}
	return p, nil
}

// Profiles materialises several accounts at once (the users/lookup shape).
// Unknown IDs are skipped, mirroring the real API's behaviour of silently
// dropping unknown users from the response. The batch is regrouped per
// shard so each shard lock is taken once, however the input interleaves
// across shards; output order follows input order regardless.
func (s *Store) Profiles(ids []UserID) []Profile {
	profiles := make([]Profile, len(ids))
	for si, group := range s.groupByShard(ids) {
		if len(group) == 0 {
			continue
		}
		sh := &s.shards[si]
		sh.mu.RLock()
		for _, i := range group {
			if p, err := s.profileIn(sh, ids[i]); err == nil {
				profiles[i] = p
			}
		}
		sh.mu.RUnlock()
	}
	// IDs start at 1, so a zero ID marks a slot no profile was written to.
	out := profiles[:0]
	for i := range profiles {
		if profiles[i].ID != 0 {
			out = append(out, profiles[i])
		}
	}
	return out
}

// AddFollower appends a follow edge (follower -> target) at time at.
// Edges must arrive in non-decreasing time order; this is the invariant the
// Section IV-B experiment verifies from the outside.
//
// This is the one mutation that touches two accounts; only the target's
// shard is locked. The follower's existence check is lock-free (accounts
// are never deleted), so followers landing on different targets in
// different shards proceed fully in parallel.
func (s *Store) AddFollower(target, follower UserID, at time.Time) error {
	lsn, err := s.addFollower(target, follower, at)
	if err != nil {
		return err
	}
	return s.opSync(lsn)
}

func (s *Store) addFollower(target, follower UserID, at time.Time) (uint64, error) {
	if err := s.checkExists(target); err != nil {
		return 0, err
	}
	if err := s.checkExists(follower); err != nil {
		return 0, err
	}
	sh := s.shardFor(target)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	td := sh.target(target)
	// Segments store unix seconds, so the monotonicity contract is per-
	// second: an edge may not be older than the newest edge's second.
	atUnix := at.Unix()
	if last, ok := td.edges.view().newestAt(); ok && atUnix < last {
		return 0, fmt.Errorf("%w: %v before %v", ErrNotMonotonic, at, unixUTC(last))
	}
	var lsn uint64
	if l := s.oplog; l != nil {
		var err error
		if lsn, err = l.LogFollow(target, follower, at); err != nil {
			return 0, fmt.Errorf("twitter: logging follow: %w", err)
		}
	}
	td.seq++
	td.edges.append(segEdge{follower: int64(follower), at: atUnix, seq: td.seq})
	return lsn, nil
}

// FollowerCount returns the number of followers of id: the materialised edge
// count for targets that ever held an edge, the synthetic counter otherwise.
// Lock-free: the edge view and the record's commit-immutable synthetic
// counter are both published for reads (the users/show count path).
func (s *Store) FollowerCount(id UserID) (int, error) {
	if err := s.checkExists(id); err != nil {
		return 0, err
	}
	sh := s.shardFor(id)
	if td := sh.targetOf(id); td != nil {
		if v := td.edges.view(); v.ever {
			return v.total, nil
		}
	}
	if rec := s.recordRO(sh, id); rec != nil {
		return int(rec.followers), nil
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	rec, err := s.recordIn(sh, id)
	if err != nil {
		return 0, err
	}
	return int(rec.followers), nil
}

// FollowersChronological returns a copy of the follower IDs of target in
// follow order (oldest first). Non-target accounts yield an empty list.
// Lock-free: decoded from a frozen edge view.
func (s *Store) FollowersChronological(target UserID) ([]UserID, error) {
	if err := s.checkExists(target); err != nil {
		return nil, err
	}
	td := s.shardFor(target).targetOf(target)
	if td == nil {
		return nil, nil
	}
	v := td.edges.view()
	out := make([]UserID, v.total)
	i := 0
	v.forEach(func(e segEdge) bool {
		out[i] = UserID(e.follower)
		i++
		return true
	})
	return out, nil
}

// FollowersNewestFirst returns a copy of the follower IDs of target with the
// most recent follower first — the order the Twitter API exposes.
func (s *Store) FollowersNewestFirst(target UserID) ([]UserID, error) {
	chrono, err := s.FollowersChronological(target)
	if err != nil {
		return nil, err
	}
	for i, j := 0, len(chrono)-1; i < j; i, j = i+1, j-1 {
		chrono[i], chrono[j] = chrono[j], chrono[i]
	}
	return chrono, nil
}

// FollowerPage is one edge-anchored page of a target's follower list.
type FollowerPage struct {
	// IDs holds up to the requested limit of follower IDs, newest first.
	IDs []UserID
	// NextSeq is the sequence number of the next (older) edge to serve,
	// or 0 when the page reached the oldest surviving edge.
	NextSeq uint64
	// Total is the live follower count observed under the same lock as
	// the page.
	Total int
}

// FollowersPage returns up to limit follower IDs of target in newest-first
// order (the order the API exposes), starting from the newest edge whose
// sequence number is <= fromSeq (pass SeqNewest for the first page). Edges
// are anchored, not counted: new followers arriving mid-crawl get higher
// seqs and never shift a resumed page, and a purge that removes the
// anchored edge itself simply lands the page on the next older survivor —
// duplicates and skips of stable edges are structurally impossible. A
// fromSeq below every surviving edge (all older edges purged, or the list
// exhausted) yields an empty page with NextSeq 0, never an error.
//
// The page is served from a frozen edge view with no shard lock (the
// celebrity-crawl hot path: a hot target's pages proceed while its writer
// holds the shard mutex). It is a FollowerWalk copied out: O(log blocks +
// limit), one block decode per 512 edges served. limit <= 0 yields an empty
// page.
func (s *Store) FollowersPage(target UserID, fromSeq uint64, limit int) (FollowerPage, error) {
	var w FollowerWalk
	if err := s.WalkFollowers(&w, target, fromSeq, limit); err != nil {
		return FollowerPage{}, err
	}
	page := FollowerPage{Total: w.Total}
	if n := w.Len(); n > 0 {
		page.IDs = make([]UserID, 0, n)
		for run := w.Next(); run != nil; run = w.Next() {
			page.IDs = append(page.IDs, run...)
		}
	}
	page.NextSeq = w.NextSeq()
	return page, nil
}

// RemoveFollowers deletes the follow edges of the given followers from
// target's list at time at (the unfollow instant), preserving the
// chronological order of the survivors. Followers not present in the list
// are ignored. It returns how many edges were removed.
//
// This is the platform mutation behind churn: organic unfollows, fake-
// follower purges, suspension sweeps. Removal times must be monotonically
// non-decreasing across calls at second resolution, mirroring the
// follow-side invariant.
func (s *Store) RemoveFollowers(target UserID, followers []UserID, at time.Time) (int, error) {
	n, lsn, err := s.removeFollowers(target, followers, at, false)
	if err != nil {
		return n, err
	}
	return n, s.opSync(lsn)
}

func (s *Store) removeFollowers(target UserID, followers []UserID, at time.Time, single bool) (int, uint64, error) {
	if err := s.checkExists(target); err != nil {
		return 0, 0, err
	}
	sh := s.shardFor(target)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	td := sh.targetOf(target)
	if td == nil || len(followers) == 0 {
		return 0, 0, nil
	}
	v := td.edges.view()
	if v.total == 0 {
		return 0, 0, nil
	}
	atUnix := at.Unix()
	if td.removedAt != 0 && atUnix < td.removedAt {
		return 0, 0, fmt.Errorf("%w: removal at %v before %v", ErrNotMonotonic, at, unixUTC(td.removedAt))
	}
	// Logged before the scan, so a removal that matches nothing still costs
	// a record; replaying it is the same no-op, so determinism holds.
	var lsn uint64
	if l := s.oplog; l != nil {
		var err error
		if single {
			lsn, err = l.LogUnfollow(target, followers[0], at)
		} else {
			lsn, err = l.LogPurge(target, followers, at)
		}
		if err != nil {
			return 0, 0, fmt.Errorf("twitter: logging removal: %w", err)
		}
	}
	drop := make(map[UserID]struct{}, len(followers))
	for _, f := range followers {
		drop[f] = struct{}{}
	}
	// Publish the survivors as one new view, which shares the old view's
	// blocks up to the first removed edge; readers mid-crawl keep the old.
	nv, removed := v.without(drop)
	if removed > 0 {
		td.edges.v.Store(nv)
		td.removedAt = atUnix
	}
	return removed, lsn, nil
}

// Unfollow deletes a single follow edge at time at. It reports whether the
// edge existed.
func (s *Store) Unfollow(target, follower UserID, at time.Time) (bool, error) {
	n, lsn, err := s.removeFollowers(target, []UserID{follower}, at, true)
	if err != nil {
		return n > 0, err
	}
	return n > 0, s.opSync(lsn)
}

// FollowEdges returns a copy of the raw follow edges of target, oldest
// first, decoded lock-free from a frozen edge view (times at unix-second
// resolution, the segments' storage resolution).
func (s *Store) FollowEdges(target UserID) ([]Follow, error) {
	if err := s.checkExists(target); err != nil {
		return nil, err
	}
	td := s.shardFor(target).targetOf(target)
	if td == nil {
		return nil, nil
	}
	v := td.edges.view()
	if v.total == 0 {
		return nil, nil
	}
	out := make([]Follow, 0, v.total)
	v.forEach(func(e segEdge) bool {
		out = append(out, Follow{Follower: UserID(e.follower), At: unixUTC(e.at), Seq: e.seq})
		return true
	})
	return out, nil
}

// IsTarget reports whether id has materialised state (lock-free).
func (s *Store) IsTarget(id UserID) bool {
	return s.shardFor(id).targetOf(id) != nil
}

// EdgeMemoryStats reports target's live edge count and the bytes its
// in-memory segment storage occupies (sealed payload + block headers +
// decoded tail). The bytes-per-edge benchmark row divides the two.
func (s *Store) EdgeMemoryStats(target UserID) (edges, bytes int) {
	td := s.shardOf(target).targetOf(target)
	if td == nil {
		return 0, 0
	}
	v := td.edges.view()
	return v.total, v.memBytes()
}

// AppendTweet records an explicit tweet for a target account and updates its
// counters. Tweets must be appended in chronological order at second
// resolution.
func (s *Store) AppendTweet(author UserID, tw Tweet) (Tweet, error) {
	out, lsn, err := s.appendTweet(author, tw, 0)
	if err != nil {
		return Tweet{}, err
	}
	return out, s.opSync(lsn)
}

// RestoreTweet reinstates a tweet exactly as logged — ID included — during
// WAL replay. Unlike AppendTweet it allocates no ID, so a replayed timeline
// is identical to the one the log recorded; the global tweet counter is
// advanced past the reinstated ID so post-replay tweets never collide.
func (s *Store) RestoreTweet(tw Tweet) error {
	if tw.ID == 0 {
		return fmt.Errorf("twitter: RestoreTweet needs an explicit tweet ID")
	}
	_, lsn, err := s.appendTweet(tw.Author, tw, tw.ID)
	if err != nil {
		return err
	}
	return s.opSync(lsn)
}

// appendTweet commits tw for author. forceID 0 assigns the next global
// tweet ID; a nonzero forceID reinstates a logged ID (RestoreTweet).
func (s *Store) appendTweet(author UserID, tw Tweet, forceID TweetID) (Tweet, uint64, error) {
	sh := s.shardFor(author)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rec, err := s.recordIn(sh, author)
	if err != nil {
		return Tweet{}, 0, err
	}
	td := sh.target(author)
	if n := len(td.tweets); n > 0 && tw.CreatedAt.Unix() < td.tweets[n-1].CreatedAt.Unix() {
		return Tweet{}, 0, fmt.Errorf("%w: tweet at %v before %v", ErrNotMonotonic, tw.CreatedAt, td.tweets[n-1].CreatedAt)
	}
	if forceID != 0 {
		tw.ID = forceID
		for {
			cur := s.tweetSeq.Load()
			if int64(forceID) <= cur || s.tweetSeq.CompareAndSwap(cur, int64(forceID)) {
				break
			}
		}
	} else {
		tw.ID = TweetID(s.tweetSeq.Add(1))
	}
	tw.Author = author
	// Logged with the assigned ID: global IDs are handed out in arrival
	// order, which need not match the per-target log order replay runs in,
	// so replay must reinstate IDs rather than re-allocate them.
	var lsn uint64
	if l := s.oplog; l != nil {
		var lerr error
		if lsn, lerr = l.LogTweet(tw); lerr != nil {
			return Tweet{}, 0, fmt.Errorf("twitter: logging tweet: %w", lerr)
		}
	}
	td.tweets = append(td.tweets, tw)
	rec.statuses++
	if tw.CreatedAt.Unix() > rec.lastTweetAt {
		rec.lastTweetAt = tw.CreatedAt.Unix()
	}
	return tw, lsn, nil
}

// Timeline returns up to max tweets of the account, most recent first.
// Target accounts return their stored tweets; synthetic accounts get a
// deterministic timeline generated from their behaviour record. max <= 0
// returns an empty slice.
func (s *Store) Timeline(id UserID, max int) ([]Tweet, error) {
	var out []Tweet
	err := s.VisitTimeline(id, 0, max, max, func(tw Tweet) {
		if out == nil {
			// max may be "everything" (1<<20): start at a page, grow by append.
			out = make([]Tweet, 0, min(max, 200))
		}
		out = append(out, tw)
	})
	return out, err
}

// VisitTimeline calls fn with up to count tweets of the account, most
// recent first, beginning at the newest tweet whose ID is <= maxID (at the
// newest of all when maxID is 0: per-author tweet IDs fall with age, the
// real API's max_id pagination) and never going past the depth-th newest
// tweet of the account. It is the one timeline read: Timeline is a visit
// appended to a slice, a user_timeline page is a visit printed into the
// response. The work is the page's, not the timeline's: stored tweets are
// found by binary search, and synthetic tweets above the page only advance
// the draw stream — no string of theirs is built.
//
// The shard lock is held only to copy the record and the stored tweets'
// slice header (appends never rewrite a published element); synthesis and
// fn run after it is released, so a slow consumer never stalls the shard's
// writers.
func (s *Store) VisitTimeline(id UserID, maxID TweetID, count, depth int, fn func(Tweet)) error {
	sh := s.shardFor(id)
	sh.mu.RLock()
	recp, err := s.recordIn(sh, id)
	if err != nil {
		sh.mu.RUnlock()
		return err
	}
	rec := *recp
	var stored []Tweet
	if td := sh.targetOf(id); td != nil {
		stored = td.tweets
	}
	sh.mu.RUnlock()

	if n := len(stored); n > 0 {
		// Stored IDs rise with position: they are handed out, and replayed,
		// in append order under the author's shard lock.
		first := 0 // rank (0 = newest) of the first tweet at or below maxID
		if maxID != 0 {
			first = n - sort.Search(n, func(i int) bool { return stored[i].ID > maxID })
		}
		for r, end := first, min(first+count, depth, n); r < end; r++ {
			fn(stored[n-1-r])
		}
		return nil
	}
	visitSynthTimeline(id, &rec, maxID, count, depth, fn)
	return nil
}

// SetFriends materialises the friend list of an account (newest first, the
// order friends/ids exposes) and updates its friends counter. Only a handful
// of accounts (targets, gold-standard members) carry materialised lists;
// for all others the API layer synthesises a deterministic list matching the
// synthetic friends counter.
func (s *Store) SetFriends(id UserID, friends []UserID) error {
	lsn, err := s.setFriends(id, friends)
	if err != nil {
		return err
	}
	return s.opSync(lsn)
}

func (s *Store) setFriends(id UserID, friends []UserID) (uint64, error) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, err := s.recordIn(sh, id); err != nil {
		return 0, err
	}
	var lsn uint64
	if l := s.oplog; l != nil {
		var err error
		if lsn, err = l.LogSetFriends(id, friends); err != nil {
			return 0, fmt.Errorf("twitter: logging friends: %w", err)
		}
	}
	// Publish a frozen copy; the record's synthetic friends counter stays
	// commit-immutable (readers derive the count from the list instead), so
	// the lock-free count path never races a counter write.
	td := sh.target(id)
	fl := append([]UserID(nil), friends...)
	td.friends.Store(&fl)
	return lsn, nil
}

// Friends returns the materialised friend list of id (newest first) and
// whether one exists. Lock-free: the list is published as a frozen slice.
func (s *Store) Friends(id UserID) ([]UserID, bool) {
	td := s.shardFor(id).targetOf(id)
	if td == nil {
		return nil, false
	}
	fl := td.friends.Load()
	if fl == nil || *fl == nil {
		return nil, false
	}
	return append([]UserID(nil), (*fl)...), true
}

// FriendsCount returns the friends (following) count of id: the length of
// the materialised list if SetFriends ever ran, the synthetic counter
// otherwise. Lock-free (the Feistel friends path sizes its permutation
// from this without touching the shard mutex).
func (s *Store) FriendsCount(id UserID) (int, error) {
	if err := s.checkExists(id); err != nil {
		return 0, err
	}
	sh := s.shardFor(id)
	if td := sh.targetOf(id); td != nil {
		if fl := td.friends.Load(); fl != nil {
			return len(*fl), nil
		}
	}
	if rec := s.recordRO(sh, id); rec != nil {
		return int(rec.friends), nil
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	rec, err := s.recordIn(sh, id)
	if err != nil {
		return 0, err
	}
	return int(rec.friends), nil
}

// Now exposes the store's clock time (convenience for generators).
func (s *Store) Now() time.Time { return s.clock.Now() }

// Clock returns the clock the store was built with.
func (s *Store) Clock() simclock.Clock { return s.clock }

// ClassCounts tallies the ground-truth classes of the given accounts,
// used by evaluation and the genpop CLI. Like Profiles, the batch is
// regrouped so each shard lock is taken once.
func (s *Store) ClassCounts(ids []UserID) map[Class]int {
	out := make(map[Class]int, 4)
	for si, group := range s.groupByShard(ids) {
		if len(group) == 0 {
			continue
		}
		sh := &s.shards[si]
		sh.mu.RLock()
		for _, i := range group {
			rec, err := s.recordIn(sh, ids[i])
			if err != nil {
				continue
			}
			out[Class(rec.class)]++
		}
		sh.mu.RUnlock()
	}
	return out
}

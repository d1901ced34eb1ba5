package difftest

import (
	"fmt"
	"math"
	"sync"
	"time"

	"fakeproject/internal/simclock"
	"fakeproject/internal/twitter"
)

// Ref is the trivially-correct reference model the sharded store is diffed
// against: one mutex, plain slices, linear scans, no sharding, no binary
// search, no compact records. It re-implements the observable semantics of
// twitter.Store from the documentation — including the deliberate quirks
// (a failed non-monotonic follow still materialises the target, a failed
// duplicate-name create burns no ID, RemoveFollowers drops at most one
// edge per distinct follower) — without sharing any code with it, so a bug
// in the store's locking or slot arithmetic cannot cancel out.
//
// The model is logical-state only: it does not synthesise screen names,
// bios or timelines (that machinery is exactly what it must stay
// independent of). Profile strings are reported in the harness's logical
// normal form — explicit screen name or empty, and "set"/"" markers for
// bio, location and URL — which is what observations are normalised to
// before a store-vs-reference comparison.
type Ref struct {
	mu       sync.Mutex
	clock    simclock.Clock
	users    []refUser
	byName   map[string]twitter.UserID
	tweetSeq int64
}

type refUser struct {
	name         string
	createdAt    int64 // unix seconds, truncated exactly like the store
	lastTweetAt  int64
	statuses     int32
	friends      int32
	followers    int32
	bio          bool
	location     bool
	url          bool
	defaultImage bool
	protected    bool
	verified     bool
	class        twitter.Class
	retweetPct   uint8
	linkPct      uint8
	spamPct      uint8
	dupPct       uint8
	td           *refTarget
}

type refTarget struct {
	follows []twitter.Follow
	tweets  []twitter.Tweet
	// friends is the materialised friend list; friendsSet records that
	// SetFriends ran at all (an empty materialised list still overrides the
	// synthetic friends counter, but Friends only reports non-empty lists).
	friends    []twitter.UserID
	friendsSet bool
	seq        uint64
	// everFollowed records that a follow edge was ever accepted — live now
	// or since removed. Only then does the materialised edge state override
	// the synthetic follower counter; a target created by tweets or friend
	// lists alone keeps its create-time count.
	everFollowed bool
	// lastRemoval is the time of the newest removal (zero = none yet).
	lastRemoval time.Time
}

// NewRef returns an empty reference model on the given clock.
func NewRef(clock simclock.Clock) *Ref {
	return &Ref{clock: clock, byName: make(map[string]twitter.UserID)}
}

// refPct mirrors the store's behaviour-ratio quantisation (independently
// implemented; the rule is part of the documented observable contract).
func refPct(f float64) uint8 {
	if math.IsNaN(f) || f <= 0 {
		return 0
	}
	if f >= 1 {
		return 100
	}
	return uint8(f*100 + 0.5)
}

func (r *Ref) user(id twitter.UserID) (*refUser, error) {
	if id < 1 || int(id) > len(r.users) {
		return nil, fmt.Errorf("%w: %d", twitter.ErrUnknownUser, id)
	}
	return &r.users[id-1], nil
}

func (u *refUser) ensureTarget() *refTarget {
	if u.td == nil {
		u.td = &refTarget{}
	}
	return u.td
}

// Roundtrip implements Applier; the reference model has no serialised form,
// so a snapshot round trip is the identity.
func (r *Ref) Roundtrip() error { return nil }

// Snapshot implements Applier; the reference model has no snapshot bytes.
func (r *Ref) Snapshot() ([]byte, error) { return nil, nil }

func (r *Ref) CreateUser(p twitter.UserParams) (twitter.UserID, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p.ScreenName != "" {
		if _, dup := r.byName[p.ScreenName]; dup {
			return 0, fmt.Errorf("%w: %q", twitter.ErrDuplicateName, p.ScreenName)
		}
	}
	created := p.CreatedAt
	if created.IsZero() {
		created = r.clock.Now()
	}
	var lastTweet int64
	if !p.LastTweet.IsZero() {
		lastTweet = p.LastTweet.Unix()
	}
	r.users = append(r.users, refUser{
		name:         p.ScreenName,
		createdAt:    created.Unix(),
		lastTweetAt:  lastTweet,
		statuses:     int32(p.Statuses),
		friends:      int32(p.Friends),
		followers:    int32(p.Followers),
		bio:          p.Bio,
		location:     p.Location,
		url:          p.URL,
		defaultImage: p.DefaultProfileImage,
		protected:    p.Protected,
		verified:     p.Verified,
		class:        p.Class,
		retweetPct:   refPct(p.Behavior.RetweetRatio),
		linkPct:      refPct(p.Behavior.LinkRatio),
		spamPct:      refPct(p.Behavior.SpamRatio),
		dupPct:       refPct(p.Behavior.DuplicateRatio),
	})
	id := twitter.UserID(len(r.users))
	if p.ScreenName != "" {
		r.byName[p.ScreenName] = id
	}
	return id, nil
}

func (r *Ref) UserCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.users)
}

func (r *Ref) AddFollower(target, follower twitter.UserID, at time.Time) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	ut, err := r.user(target)
	if err != nil {
		return err
	}
	if _, err := r.user(follower); err != nil {
		return err
	}
	// The store materialises the target before the monotonicity check, so a
	// rejected edge still flips the account to "target" (though the follower
	// count stays synthetic until an edge actually lands). Edge times are
	// compared at second resolution, the precision the segment encoding
	// keeps.
	td := ut.ensureTarget()
	if n := len(td.follows); n > 0 && at.Unix() < td.follows[n-1].At.Unix() {
		return fmt.Errorf("%w: %v before %v", twitter.ErrNotMonotonic, at, td.follows[n-1].At)
	}
	td.seq++
	td.follows = append(td.follows, twitter.Follow{Follower: follower, At: at, Seq: td.seq})
	td.everFollowed = true
	return nil
}

func (r *Ref) RemoveFollowers(target twitter.UserID, followers []twitter.UserID, at time.Time) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ut, err := r.user(target)
	if err != nil {
		return 0, err
	}
	td := ut.td
	if td == nil || len(td.follows) == 0 || len(followers) == 0 {
		return 0, nil
	}
	// Removal times are compared at second resolution, like follows: the
	// precision snapshots and the write-ahead log keep.
	if !td.lastRemoval.IsZero() && at.Unix() < td.lastRemoval.Unix() {
		return 0, fmt.Errorf("%w: removal at %v before %v", twitter.ErrNotMonotonic, at, td.lastRemoval)
	}
	drop := make(map[twitter.UserID]bool, len(followers))
	for _, f := range followers {
		drop[f] = true
	}
	var kept []twitter.Follow
	removed := 0
	for _, edge := range td.follows {
		if drop[edge.Follower] {
			// At most one edge per distinct follower is removed.
			delete(drop, edge.Follower)
			removed++
			continue
		}
		kept = append(kept, edge)
	}
	td.follows = kept
	if removed > 0 {
		td.lastRemoval = at
	}
	return removed, nil
}

func (r *Ref) Unfollow(target, follower twitter.UserID, at time.Time) (bool, error) {
	n, err := r.RemoveFollowers(target, []twitter.UserID{follower}, at)
	return n > 0, err
}

func (r *Ref) AppendTweet(author twitter.UserID, tw twitter.Tweet) (twitter.Tweet, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	u, err := r.user(author)
	if err != nil {
		return twitter.Tweet{}, err
	}
	td := u.ensureTarget()
	if n := len(td.tweets); n > 0 && tw.CreatedAt.Unix() < td.tweets[n-1].CreatedAt.Unix() {
		return twitter.Tweet{}, fmt.Errorf("%w: tweet at %v before %v", twitter.ErrNotMonotonic, tw.CreatedAt, td.tweets[n-1].CreatedAt)
	}
	r.tweetSeq++
	tw.ID = twitter.TweetID(r.tweetSeq)
	tw.Author = author
	td.tweets = append(td.tweets, tw)
	u.statuses++
	if tw.CreatedAt.Unix() > u.lastTweetAt {
		u.lastTweetAt = tw.CreatedAt.Unix()
	}
	return tw, nil
}

// FollowersPage re-implements edge-anchored pagination as a newest-first
// linear scan — deliberately not the store's binary search.
func (r *Ref) FollowersPage(target twitter.UserID, fromSeq uint64, limit int) (twitter.FollowerPage, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ut, err := r.user(target)
	if err != nil {
		return twitter.FollowerPage{}, err
	}
	if ut.td == nil {
		return twitter.FollowerPage{}, nil
	}
	follows := ut.td.follows
	page := twitter.FollowerPage{Total: len(follows)}
	if limit <= 0 {
		return page, nil
	}
	for i := len(follows) - 1; i >= 0; i-- {
		edge := follows[i]
		if edge.Seq > fromSeq {
			continue
		}
		if len(page.IDs) == limit {
			page.NextSeq = edge.Seq
			break
		}
		page.IDs = append(page.IDs, edge.Follower)
	}
	return page, nil
}

func (r *Ref) FollowerCount(id twitter.UserID) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	u, err := r.user(id)
	if err != nil {
		return 0, err
	}
	if u.td != nil && u.td.everFollowed {
		return len(u.td.follows), nil
	}
	return int(u.followers), nil
}

func (r *Ref) FollowEdges(id twitter.UserID) ([]twitter.Follow, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	u, err := r.user(id)
	if err != nil {
		return nil, err
	}
	if u.td == nil {
		return nil, nil
	}
	return append([]twitter.Follow(nil), u.td.follows...), nil
}

// SetFriends materialises id's friend list, replacing any previous one.
// Like the store, a successful call always switches the friends counter to
// the materialised list — even an empty one — and promotes the account to
// a target.
func (r *Ref) SetFriends(id twitter.UserID, friends []twitter.UserID) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	u, err := r.user(id)
	if err != nil {
		return err
	}
	td := u.ensureTarget()
	td.friends = append([]twitter.UserID(nil), friends...)
	td.friendsSet = true
	return nil
}

// Friends mirrors the store's quirk: a list set to empty overrides the
// counter but does not report as materialised.
func (r *Ref) Friends(id twitter.UserID) ([]twitter.UserID, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	u, err := r.user(id)
	if err != nil || u.td == nil || !u.td.friendsSet || len(u.td.friends) == 0 {
		return nil, false
	}
	return append([]twitter.UserID(nil), u.td.friends...), true
}

func (r *Ref) IsTarget(id twitter.UserID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	u, err := r.user(id)
	return err == nil && u.td != nil
}

// Timeline returns the explicit timeline of id, newest first. The reference
// model has no synthetic timelines: accounts without explicit tweets yield
// nil, and the harness only compares timelines of accounts it tweeted to.
func (r *Ref) Timeline(id twitter.UserID, max int) ([]twitter.Tweet, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	u, err := r.user(id)
	if err != nil {
		return nil, err
	}
	if max <= 0 || u.td == nil || len(u.td.tweets) == 0 {
		return nil, nil
	}
	n := len(u.td.tweets)
	if max > n {
		max = n
	}
	out := make([]twitter.Tweet, max)
	for i := 0; i < max; i++ {
		out[i] = u.td.tweets[n-1-i]
	}
	return out, nil
}

func (r *Ref) Profile(id twitter.UserID) (twitter.Profile, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.profileLocked(id)
}

func (r *Ref) profileLocked(id twitter.UserID) (twitter.Profile, error) {
	u, err := r.user(id)
	if err != nil {
		return twitter.Profile{}, err
	}
	followers := int(u.followers)
	if u.td != nil && u.td.everFollowed {
		followers = len(u.td.follows)
	}
	friends := int(u.friends)
	if u.td != nil && u.td.friendsSet {
		friends = len(u.td.friends)
	}
	var lastTweet time.Time
	if u.lastTweetAt != 0 {
		lastTweet = time.Unix(u.lastTweetAt, 0).UTC()
	}
	p := twitter.Profile{
		User: twitter.User{
			ID:                  id,
			ScreenName:          u.name,
			CreatedAt:           time.Unix(u.createdAt, 0).UTC(),
			DefaultProfileImage: u.defaultImage,
			Protected:           u.protected,
			Verified:            u.verified,
		},
		FollowersCount: followers,
		FriendsCount:   friends,
		StatusesCount:  int(u.statuses),
		LastTweetAt:    lastTweet,
		Behavior: twitter.Behavior{
			RetweetRatio:   float64(u.retweetPct) / 100,
			LinkRatio:      float64(u.linkPct) / 100,
			SpamRatio:      float64(u.spamPct) / 100,
			DuplicateRatio: float64(u.dupPct) / 100,
		},
	}
	// Logical normal form for synthesised strings: presence markers only.
	if u.bio {
		p.Bio = "set"
	}
	if u.location {
		p.Location = "set"
	}
	if u.url {
		p.URL = "set"
	}
	return p, nil
}

func (r *Ref) Profiles(ids []twitter.UserID) []twitter.Profile {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]twitter.Profile, 0, len(ids))
	for _, id := range ids {
		p, err := r.profileLocked(id)
		if err != nil {
			continue
		}
		out = append(out, p)
	}
	return out
}

func (r *Ref) LookupName(name string) (twitter.UserID, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	id, ok := r.byName[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", twitter.ErrUnknownName, name)
	}
	return id, nil
}

func (r *Ref) TrueClass(id twitter.UserID) (twitter.Class, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	u, err := r.user(id)
	if err != nil {
		return 0, err
	}
	return u.class, nil
}

func (r *Ref) ClassCounts(ids []twitter.UserID) map[twitter.Class]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[twitter.Class]int, 4)
	for _, id := range ids {
		u, err := r.user(id)
		if err != nil {
			continue
		}
		out[u.class]++
	}
	return out
}

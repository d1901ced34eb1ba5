// Package difftest is the store's differential oracle. Check replays one
// seeded, randomized op stream (create / follow / unfollow / purge / tweet
// / setfriends / page / snapshot) against every Deployment — a way of
// running the store and of bringing it back — each in lockstep with its own
// Ref, the trivially-correct reference model (ref.go) that shares no code
// with the store. Every op result and every periodic observation must
// match, in logical normal form (synthesised strings reduced to presence
// markers: the reference has no synthesis machinery), and each OpSnapshot
// sends a deployment down its own path back. Full deployments must also
// agree with each other byte for byte, and observers (ring members, the
// wire) must serve what the live store serves. A divergence is shrunk
// (delta debugging) to a minimal stream that names the deployment.
package difftest

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"time"

	"fakeproject/internal/router"
	"fakeproject/internal/simclock"
	"fakeproject/internal/twitter"
)

// OpKind enumerates the generated op vocabulary.
type OpKind uint8

const (
	OpCreate OpKind = iota + 1
	OpFollow
	OpUnfollow
	OpPurge
	OpTweet
	OpPage
	OpSnapshot
	OpSetFriends
)

func (k OpKind) String() string {
	switch k {
	case OpCreate:
		return "create"
	case OpFollow:
		return "follow"
	case OpUnfollow:
		return "unfollow"
	case OpPurge:
		return "purge"
	case OpTweet:
		return "tweet"
	case OpPage:
		return "page"
	case OpSnapshot:
		return "snapshot"
	case OpSetFriends:
		return "setfriends"
	default:
		return fmt.Sprintf("op(%d)", uint8(k))
	}
}

// Op is one operation of a differential stream.
type Op struct {
	Kind     OpKind
	Params   twitter.UserParams // OpCreate
	Target   twitter.UserID     // OpFollow/OpUnfollow/OpPurge/OpPage; author for OpTweet
	Follower twitter.UserID     // OpFollow/OpUnfollow
	Purge    []twitter.UserID   // OpPurge
	Friends  []twitter.UserID   // OpSetFriends list (may be empty)
	At       time.Time          // event time for mutations
	FromSeq  uint64             // OpPage anchor
	Limit    int                // OpPage limit
	Tweet    twitter.Tweet      // OpTweet payload (ID/Author assigned by the store)
}

func (op Op) String() string {
	switch op.Kind {
	case OpCreate:
		return fmt.Sprintf("create{name:%q statuses:%d followers:%d}", op.Params.ScreenName, op.Params.Statuses, op.Params.Followers)
	case OpFollow:
		return fmt.Sprintf("follow{target:%d follower:%d at:%d}", op.Target, op.Follower, op.At.Unix())
	case OpUnfollow:
		return fmt.Sprintf("unfollow{target:%d follower:%d}", op.Target, op.Follower)
	case OpPurge:
		return fmt.Sprintf("purge{target:%d followers:%v}", op.Target, op.Purge)
	case OpTweet:
		return fmt.Sprintf("tweet{author:%d at:%d}", op.Target, op.Tweet.CreatedAt.Unix())
	case OpPage:
		return fmt.Sprintf("page{target:%d from:%d limit:%d}", op.Target, op.FromSeq, op.Limit)
	case OpSnapshot:
		return "snapshot{}"
	case OpSetFriends:
		return fmt.Sprintf("setfriends{target:%d friends:%v}", op.Target, op.Friends)
	default:
		return op.Kind.String()
	}
}

// System is the observable store surface the harness drives and probes.
// *twitter.Store implements it; so does *Ref.
type System interface {
	CreateUser(p twitter.UserParams) (twitter.UserID, error)
	AddFollower(target, follower twitter.UserID, at time.Time) error
	Unfollow(target, follower twitter.UserID, at time.Time) (bool, error)
	RemoveFollowers(target twitter.UserID, followers []twitter.UserID, at time.Time) (int, error)
	AppendTweet(author twitter.UserID, tw twitter.Tweet) (twitter.Tweet, error)
	SetFriends(id twitter.UserID, friends []twitter.UserID) error
	Friends(id twitter.UserID) ([]twitter.UserID, bool)
	FollowersPage(target twitter.UserID, fromSeq uint64, limit int) (twitter.FollowerPage, error)
	UserCount() int
	FollowerCount(id twitter.UserID) (int, error)
	FollowEdges(id twitter.UserID) ([]twitter.Follow, error)
	IsTarget(id twitter.UserID) bool
	Timeline(id twitter.UserID, max int) ([]twitter.Tweet, error)
	Profile(id twitter.UserID) (twitter.Profile, error)
	Profiles(ids []twitter.UserID) []twitter.Profile
	LookupName(name string) (twitter.UserID, error)
	TrueClass(id twitter.UserID) (twitter.Class, error)
	ClassCounts(ids []twitter.UserID) map[twitter.Class]int
}

var _ System = (*twitter.Store)(nil)
var _ System = (*Ref)(nil)

// Applier is a System that additionally supports the snapshot-roundtrip op
// and snapshot byte capture.
type Applier interface {
	System
	// Roundtrip brings the full state back in place through the system's
	// path back (identity for systems without a serialised form).
	Roundtrip() error
	// Snapshot returns the canonical snapshot bytes, or nil for systems
	// without a serialised form.
	Snapshot() ([]byte, error)
	// Now is the clock zero-time creates are stamped with; a path back may
	// advance it.
	Now() time.Time
}

// StoreApplier wraps *twitter.Store as an Applier; Roundtrip swaps the
// store for one reloaded from its own snapshot, preserving the configured
// shard count.
type StoreApplier struct {
	System
	clock *simclock.Virtual
	opts  []twitter.Option
	buf   bytes.Buffer // reused across round trips
}

// NewStoreApplier builds a fresh store on a virtual clock at the epoch.
func NewStoreApplier(seed uint64, opts ...twitter.Option) *StoreApplier {
	clock := simclock.NewVirtualAtEpoch()
	return &StoreApplier{
		System: twitter.NewStore(clock, seed, opts...),
		clock:  clock,
		opts:   opts,
	}
}

// Store returns the current underlying store (it changes across Roundtrip).
func (a *StoreApplier) Store() *twitter.Store { return a.System.(*twitter.Store) }

func (a *StoreApplier) Snapshot() ([]byte, error) { return snapshotOf(a.Store()) }

func (a *StoreApplier) Now() time.Time { return a.Store().Now() }

func (a *StoreApplier) Roundtrip() error {
	a.buf.Reset()
	if err := a.Store().WriteSnapshot(&a.buf); err != nil {
		return err
	}
	loaded, err := twitter.ReadSnapshot(bytes.NewReader(a.buf.Bytes()), a.clock, a.opts...)
	if err != nil {
		return err
	}
	a.System = loaded
	return nil
}

func snapshotOf(st *twitter.Store) ([]byte, error) {
	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ObsTweet is a Tweet with its timestamp canonicalised to unix seconds, so
// comparisons never depend on time.Time's internal representation.
type ObsTweet struct {
	ID        twitter.TweetID
	Author    twitter.UserID
	At        int64
	Text      string
	IsRetweet bool
	HasLink   bool
	IsReply   bool
	Mentions  int
	Hashtags  int
	Source    string
}

// CanonTweet is tw as observations hold it.
func CanonTweet(tw twitter.Tweet) ObsTweet {
	return ObsTweet{
		ID: tw.ID, Author: tw.Author, At: tw.CreatedAt.Unix(),
		Text: tw.Text, IsRetweet: tw.IsRetweet, HasLink: tw.HasLink,
		IsReply: tw.IsReply, Mentions: tw.Mentions, Hashtags: tw.Hashtags,
		Source: tw.Source,
	}
}

// obsFollow is a Follow with its timestamp canonicalised to unix seconds.
type obsFollow struct {
	Follower twitter.UserID
	At       int64
	Seq      uint64
}

func canonFollows(edges []twitter.Follow) []obsFollow {
	if edges == nil {
		return nil
	}
	out := make([]obsFollow, len(edges))
	for i, e := range edges {
		out[i] = obsFollow{Follower: e.Follower, At: e.At.Unix(), Seq: e.Seq}
	}
	return out
}

// Result is the canonicalised outcome of one applied op. Errors are
// reduced to their sentinel class so the two systems' message wording
// never has to match.
type Result struct {
	Kind  OpKind
	Err   string
	ID    twitter.UserID       // OpCreate
	OK    bool                 // OpUnfollow
	N     int                  // OpPurge; observed FollowersCount for OpTweet/OpSetFriends
	Tweet ObsTweet             // OpTweet
	Page  twitter.FollowerPage // OpPage
}

func errClass(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, twitter.ErrUnknownUser):
		return "unknown-user"
	case errors.Is(err, twitter.ErrUnknownName):
		return "unknown-name"
	case errors.Is(err, twitter.ErrNotMonotonic):
		return "not-monotonic"
	case errors.Is(err, twitter.ErrDuplicateName):
		return "duplicate-name"
	case errors.Is(err, twitter.ErrBadSnapshot):
		return "bad-snapshot"
	default:
		return "error: " + err.Error()
	}
}

// Apply executes op against sys and canonicalises the outcome.
func Apply(sys Applier, op Op) Result {
	res := Result{Kind: op.Kind}
	switch op.Kind {
	case OpCreate:
		id, err := sys.CreateUser(op.Params)
		res.ID, res.Err = id, errClass(err)
	case OpFollow:
		res.Err = errClass(sys.AddFollower(op.Target, op.Follower, op.At))
	case OpUnfollow:
		ok, err := sys.Unfollow(op.Target, op.Follower, op.At)
		res.OK, res.Err = ok, errClass(err)
	case OpPurge:
		n, err := sys.RemoveFollowers(op.Target, op.Purge, op.At)
		res.N, res.Err = n, errClass(err)
	case OpTweet:
		tw, err := sys.AppendTweet(op.Target, op.Tweet)
		res.Tweet, res.Err = CanonTweet(tw), errClass(err)
		// Tweeting promotes the author to a target; the synthetic follower
		// count must survive that promotion (the count-zeroing regression),
		// so the profile is probed in the same result.
		if p, perr := sys.Profile(op.Target); perr == nil {
			res.N = p.FollowersCount
		}
	case OpSetFriends:
		res.Err = errClass(sys.SetFriends(op.Target, op.Friends))
		// Same promotion hazard as OpTweet.
		if p, perr := sys.Profile(op.Target); perr == nil {
			res.N = p.FollowersCount
		}
	case OpPage:
		page, err := sys.FollowersPage(op.Target, op.FromSeq, op.Limit)
		res.Page, res.Err = page, errClass(err)
	case OpSnapshot:
		res.Err = errClass(sys.Roundtrip())
	default:
		panic(fmt.Sprintf("difftest: unknown op kind %d", op.Kind))
	}
	return res
}

// Replay applies ops to a fresh in-memory store built on seed, for tests
// that need a generated population rather than a differential run.
func Replay(seed uint64, ops []Op) *StoreApplier {
	a := NewStoreApplier(seed)
	for _, op := range ops {
		Apply(a, op)
	}
	return a
}

// Generate produces a deterministic op stream of length n from seed,
// covering the full vocabulary: account creation (explicit, synthetic and
// duplicate names; occasional zero CreatedAt exercising the clock path),
// follows with a hot-head/long-tail target skew and occasional unknown
// users and stale timestamps (error paths), event times with sub-second
// offsets that run backwards within a second, unfollows, multi-follower
// purges, explicit tweets, friend-list materialisations (including empty
// lists, the counter-override quirk), follower pages with mixed anchors
// and limits, and snapshot round trips.
func Generate(seed uint64, n int) []Op {
	rng := rand.New(rand.NewSource(int64(seed)))
	now := simclock.Epoch
	// Event times mostly advance by whole seconds, but a quarter stay in
	// the previous event's second and half carry a sub-second offset,
	// so two events of one second can run backwards below it. Monotonicity
	// is a per-second contract (the resolution snapshots and the log keep):
	// a live store comparing finer than its reloaded or recovered twin
	// diverges from the reference model.
	advance := func() time.Time {
		if rng.Intn(4) > 0 {
			now = now.Add(time.Duration(1+rng.Intn(180)) * time.Second)
		}
		if rng.Intn(2) == 0 {
			return now.Add(time.Duration(rng.Intn(1000)) * time.Millisecond)
		}
		return now
	}
	users := 0
	var names []string
	serial := 0
	targetOf := func() twitter.UserID {
		if users == 0 {
			return 1
		}
		switch k := rng.Intn(100); {
		case k < 50:
			return twitter.UserID(1 + rng.Intn(min(users, 4))) // hot head
		case k < 90:
			return twitter.UserID(1 + rng.Intn(min(users, 32))) // warm middle
		default:
			return twitter.UserID(1 + rng.Intn(users+2)) // tail, maybe unknown
		}
	}
	anyUser := func() twitter.UserID {
		if users == 0 || rng.Intn(25) == 0 {
			return twitter.UserID(users + 1 + rng.Intn(4)) // unknown
		}
		return twitter.UserID(1 + rng.Intn(users))
	}
	ops := make([]Op, 0, n)
	for len(ops) < n {
		roll := rng.Intn(100)
		switch {
		case users < 8 || roll < 20: // create
			p := twitter.UserParams{
				Statuses:            rng.Intn(300),
				Friends:             rng.Intn(500),
				Followers:           rng.Intn(1000),
				Bio:                 rng.Intn(2) == 0,
				Location:            rng.Intn(3) == 0,
				URL:                 rng.Intn(4) == 0,
				DefaultProfileImage: rng.Intn(3) == 0,
				Protected:           rng.Intn(20) == 0,
				Verified:            rng.Intn(30) == 0,
				Class:               twitter.Class(rng.Intn(4)), // includes unclassified 0
				Behavior: twitter.Behavior{
					RetweetRatio:   rng.Float64() * 1.2,  // may exceed 1: clamp path
					LinkRatio:      rng.Float64() - 0.05, // may go negative: floor path
					SpamRatio:      rng.Float64(),
					DuplicateRatio: rng.Float64(),
				},
			}
			if rng.Intn(10) > 0 { // 10% leave CreatedAt zero: clock-default path
				p.CreatedAt = simclock.Epoch.AddDate(0, 0, -1-rng.Intn(2000))
			}
			if rng.Intn(3) == 0 {
				p.LastTweet = simclock.Epoch.AddDate(0, 0, -rng.Intn(200))
			}
			dup := false
			if rng.Intn(100) < 18 {
				if len(names) > 0 && rng.Intn(100) < 15 {
					p.ScreenName = names[rng.Intn(len(names))] // duplicate: must fail
					dup = true
				} else {
					serial++
					p.ScreenName = fmt.Sprintf("u%05d", serial)
					names = append(names, p.ScreenName)
				}
			}
			ops = append(ops, Op{Kind: OpCreate, Params: p})
			if !dup {
				users++
			}
		case roll < 50: // follow
			at := advance()
			if rng.Intn(100) < 5 {
				at = simclock.Epoch.Add(-time.Duration(1+rng.Intn(3600)) * time.Second) // stale
			}
			ops = append(ops, Op{Kind: OpFollow, Target: targetOf(), Follower: anyUser(), At: at})
		case roll < 58: // unfollow
			ops = append(ops, Op{Kind: OpUnfollow, Target: targetOf(), Follower: anyUser(), At: advance()})
		case roll < 65: // purge
			batch := make([]twitter.UserID, 1+rng.Intn(16))
			for i := range batch {
				batch[i] = anyUser()
			}
			at := advance()
			if rng.Intn(100) < 4 {
				at = simclock.Epoch.Add(-time.Hour)
			}
			ops = append(ops, Op{Kind: OpPurge, Target: targetOf(), Purge: batch, At: at})
		case roll < 76: // tweet
			at := advance()
			if rng.Intn(100) < 5 {
				at = simclock.Epoch.Add(-time.Duration(1+rng.Intn(3600)) * time.Second)
			}
			ops = append(ops, Op{Kind: OpTweet, Target: targetOf(), Tweet: twitter.Tweet{
				CreatedAt: at,
				Text:      fmt.Sprintf("status %d", len(ops)),
				IsRetweet: rng.Intn(5) == 0,
				HasLink:   rng.Intn(4) == 0,
				IsReply:   rng.Intn(6) == 0,
				Mentions:  rng.Intn(3),
				Hashtags:  rng.Intn(3),
				Source:    [...]string{"web", "mobile", "api"}[rng.Intn(3)],
			}})
		case roll < 81: // setfriends
			fl := make([]twitter.UserID, rng.Intn(9))
			for i := range fl {
				fl[i] = anyUser()
			}
			ops = append(ops, Op{Kind: OpSetFriends, Target: targetOf(), Friends: fl})
		case roll < 96: // page
			op := Op{Kind: OpPage, Target: targetOf(), FromSeq: twitter.SeqNewest, Limit: 1 + rng.Intn(40)}
			switch rng.Intn(10) {
			case 0:
				op.Limit = -1 + rng.Intn(2) // 0 or -1: empty-page path
			case 1:
				op.FromSeq = rng.Uint64() % 400 // arbitrary anchor incl. purged seqs
			case 2:
				op.FromSeq = 1 + rng.Uint64()%4 // oldest edges
			}
			ops = append(ops, op)
		default: // snapshot round trip (~4%)
			ops = append(ops, Op{Kind: OpSnapshot})
		}
	}
	return ops
}

// celebrityBlock is the store's sealed block length (edgeBlockLen, not
// exported): Celebrity aims its removals at block boundaries.
const celebrityBlock = 512

// Celebrity produces a preset stream in which target 1 takes follow bursts
// past three sealed blocks of celebrityBlock edges, then loses edges at
// every place a removal treats differently: unfollows in the first, a
// middle and the last sealed block and in the tail, purges of a tail run,
// an interior run and a run across a block boundary, a purge of absent
// followers only, and a batch naming followers twice. Two followers also
// follow twice, so a removal must drop the older of their edges, wherever
// the newer sits. Bursts between the removals seal new blocks behind lists
// a removal has just rebuilt, and full pages, anchored pages and snapshot
// round trips follow each step. The seed varies burst sizes and the exact
// positions; the stream is valid for any seed.
func Celebrity(seed uint64) []Op {
	rng := rand.New(rand.NewSource(int64(seed)))
	const target = twitter.UserID(1)
	// Accounts 2..followers+1 follow; the rest never do, so purging them
	// removes nothing.
	followers := 3*celebrityBlock + 300 + rng.Intn(100)
	accounts := followers + 1 + 16
	ops := make([]Op, 0, 2*accounts+200)
	for i := 0; i < accounts; i++ {
		ops = append(ops, Op{Kind: OpCreate})
	}
	now := simclock.Epoch
	var live []twitter.UserID // the list as the removals below leave it
	var seqs []uint64         // the seq of each live edge
	seq := uint64(0)
	follow := func(f twitter.UserID) {
		ops = append(ops, Op{Kind: OpFollow, Target: target, Follower: f, At: now})
		seq++
		live = append(live, f)
		seqs = append(seqs, seq)
	}
	// burst follows the given accounts in runs bought within one second.
	burst := func(ids []twitter.UserID) {
		for len(ids) > 0 {
			now = now.Add(time.Second)
			n := min(len(ids), 20+rng.Intn(280))
			for _, f := range ids[:n] {
				follow(f)
			}
			ids = ids[n:]
		}
	}
	pages := func() {
		ops = append(ops,
			Op{Kind: OpPage, Target: target, FromSeq: twitter.SeqNewest, Limit: len(live) + 1},
			Op{Kind: OpPage, Target: target, FromSeq: seqs[rng.Intn(len(seqs))], Limit: celebrityBlock + rng.Intn(celebrityBlock)},
			Op{Kind: OpPage, Target: target, FromSeq: 1 + rng.Uint64()%seq, Limit: 1 + rng.Intn(2*celebrityBlock)})
	}
	// remove drops the oldest edge of each distinct follower in batch, as
	// the store does, and records the removal in the stream.
	remove := func(batch []twitter.UserID) {
		now = now.Add(time.Second)
		if len(batch) == 1 {
			ops = append(ops, Op{Kind: OpUnfollow, Target: target, Follower: batch[0], At: now})
		} else {
			ops = append(ops, Op{Kind: OpPurge, Target: target, Purge: batch, At: now})
		}
		drop := make(map[twitter.UserID]bool, len(batch))
		for _, f := range batch {
			drop[f] = true
		}
		keep := 0
		for i, f := range live {
			if drop[f] {
				delete(drop, f)
				continue
			}
			live[keep], seqs[keep] = f, seqs[i]
			keep++
		}
		live, seqs = live[:keep], seqs[:keep]
		pages()
		if rng.Intn(3) == 0 {
			ops = append(ops, Op{Kind: OpSnapshot})
		}
	}
	// at returns a copy of the followers at live positions [from, to).
	at := func(from, to int) []twitter.UserID { return append([]twitter.UserID(nil), live[from:to]...) }
	// in returns a live position in sealed block b, or in the tail for b
	// == -1. The list holds more than three blocks and a tail throughout.
	in := func(b int) int {
		if b < 0 {
			sealed := len(live) / celebrityBlock * celebrityBlock
			return sealed + rng.Intn(len(live)-sealed)
		}
		return b*celebrityBlock + rng.Intn(celebrityBlock)
	}
	one := func(b int) []twitter.UserID { return []twitter.UserID{live[in(b)]} }

	ids := make([]twitter.UserID, followers)
	for i := range ids {
		ids[i] = twitter.UserID(2 + i)
	}
	twice := []twitter.UserID{ids[3], ids[celebrityBlock+7]} // follow again later
	burst(ids[:2*celebrityBlock])
	burst(twice)
	burst(ids[2*celebrityBlock:])
	pages()
	ops = append(ops, Op{Kind: OpSnapshot})

	remove(one(2))    // the last sealed block
	remove(one(-1))   // the tail
	remove(one(1))    // a middle block
	remove(one(0))    // the first block
	remove(twice[:1]) // the older edge, in block 0
	tail := 5 + rng.Intn(30)
	remove(at(len(live)-tail, len(live)))     // a tail run
	burst(ids[len(ids)-40:][:5+rng.Intn(35)]) // some come back
	from := celebrityBlock + 50 + rng.Intn(300)
	remove(at(from, from+20+rng.Intn(100))) // an interior run
	edge := 2*celebrityBlock - 10 - rng.Intn(20)
	remove(at(edge, edge+25+rng.Intn(30))) // across a block boundary
	absent := []twitter.UserID{twitter.UserID(followers + 2), twitter.UserID(accounts), twitter.UserID(accounts + 3)}
	remove(absent) // nobody: no new view
	a, b := live[in(2)], live[in(-1)]
	remove([]twitter.UserID{a, a, b, twice[1], b, twice[1]}) // duplicates in the batch
	burst(ids[:celebrityBlock+rng.Intn(celebrityBlock)])     // re-follows seal new blocks
	remove(one(0))
	pages()
	ops = append(ops, Op{Kind: OpSnapshot})
	return ops
}

// ObserveConfig controls how much observable state an observation captures.
type ObserveConfig struct {
	// Full compares synthesised content too: profile strings as-is and
	// synthetic timelines for a sample of accounts (Check adds a Full
	// lane's snapshot bytes). Off, observations are reduced to logical
	// normal form (the reference model's vocabulary).
	Full bool
	// PageLimit is the page size used for full pagination walks.
	PageLimit int
	// TweetUsers are accounts with explicit tweets; their timelines are
	// compared in every mode.
	TweetUsers []twitter.UserID
	// Names are explicit screen names to probe through LookupName.
	Names []string
	// Holds, when set, observes a ring member: per-account heavy state —
	// edges, friends, pagination walks and timelines — only for the
	// accounts it selects. Profiles, counts, classes and names are observed
	// for every account, as every member serves them.
	Holds func(twitter.UserID) bool
}

// Observation is a canonicalised dump of all observable platform state.
type Observation struct {
	Users         int
	Profiles      []ObsProfile
	Classes       []twitter.Class
	FollowerCount []int
	Targets       map[twitter.UserID]targetObs
	Timelines     map[twitter.UserID][]ObsTweet
	Lookups       map[string]int64
	BatchProfiles []ObsProfile
	ClassCounts   map[twitter.Class]int
	SnapshotBytes []byte
}

// ObsProfile is a Profile with its times canonicalised to unix seconds.
type ObsProfile struct {
	ID                  twitter.UserID
	ScreenName          string
	Name                string
	Bio                 string
	Location            string
	URL                 string
	CreatedAt           int64
	DefaultProfileImage bool
	Protected           bool
	Verified            bool
	Followers           int
	Friends             int
	Statuses            int
	LastTweetAt         int64
	Behavior            twitter.Behavior
}

// CanonProfile is p as observations hold it.
func CanonProfile(p twitter.Profile) ObsProfile {
	var last int64
	if !p.LastTweetAt.IsZero() {
		last = p.LastTweetAt.Unix()
	}
	return ObsProfile{
		ID: p.ID, ScreenName: p.ScreenName, Name: p.Name, Bio: p.Bio,
		Location: p.Location, URL: p.URL, CreatedAt: p.CreatedAt.Unix(),
		DefaultProfileImage: p.DefaultProfileImage, Protected: p.Protected,
		Verified: p.Verified, Followers: p.FollowersCount,
		Friends: p.FriendsCount, Statuses: p.StatusesCount,
		LastTweetAt: last, Behavior: p.Behavior,
	}
}

// targetObs captures everything observable about one materialised target.
type targetObs struct {
	Edges []obsFollow
	// FriendsList/FriendsSet mirror the Friends accessor: the materialised
	// friend list and whether one is reported at all.
	FriendsList []twitter.UserID
	FriendsSet  bool
	// Walk is the full pagination walk: every ID served, newest first,
	// plus the anchor trail and the Total reported by each page.
	Walk       []twitter.UserID
	WalkSeqs   []uint64
	WalkTotals []int
}

func (cfg ObserveConfig) holds(id twitter.UserID) bool { return cfg.Holds == nil || cfg.Holds(id) }

// Observe captures a canonicalised observation of sys, snapshot bytes aside.
func Observe(sys System, cfg ObserveConfig) (Observation, error) {
	limit := cfg.PageLimit
	if limit <= 0 {
		limit = 7
	}
	n := sys.UserCount()
	obs := Observation{
		Users:         n,
		Profiles:      make([]ObsProfile, 0, n),
		Classes:       make([]twitter.Class, 0, n),
		FollowerCount: make([]int, 0, n),
		Targets:       make(map[twitter.UserID]targetObs),
		Timelines:     make(map[twitter.UserID][]ObsTweet),
		Lookups:       make(map[string]int64),
	}
	for id := twitter.UserID(1); int(id) <= n; id++ {
		p, err := sys.Profile(id)
		if err != nil {
			return obs, fmt.Errorf("profile %d: %w", id, err)
		}
		obs.Profiles = append(obs.Profiles, CanonProfile(p))
		class, err := sys.TrueClass(id)
		if err != nil {
			return obs, err
		}
		obs.Classes = append(obs.Classes, class)
		fc, err := sys.FollowerCount(id)
		if err != nil {
			return obs, err
		}
		obs.FollowerCount = append(obs.FollowerCount, fc)
		if !cfg.holds(id) || !sys.IsTarget(id) {
			continue
		}
		edges, err := sys.FollowEdges(id)
		if err != nil {
			return obs, err
		}
		tobs := targetObs{Edges: canonFollows(edges)}
		tobs.FriendsList, tobs.FriendsSet = sys.Friends(id)
		fromSeq := twitter.SeqNewest
		for steps := 0; ; steps++ {
			if steps > len(edges)/limit+2 {
				return obs, fmt.Errorf("pagination walk of %d did not terminate", id)
			}
			page, err := sys.FollowersPage(id, fromSeq, limit)
			if err != nil {
				return obs, err
			}
			tobs.Walk = append(tobs.Walk, page.IDs...)
			tobs.WalkSeqs = append(tobs.WalkSeqs, page.NextSeq)
			tobs.WalkTotals = append(tobs.WalkTotals, page.Total)
			if page.NextSeq == 0 {
				break
			}
			fromSeq = page.NextSeq
		}
		obs.Targets[id] = tobs
	}
	timeline := func(id twitter.UserID, max int) error {
		if _, seen := obs.Timelines[id]; seen || !cfg.holds(id) {
			return nil
		}
		tl, err := sys.Timeline(id, max)
		canon := make([]ObsTweet, len(tl))
		for i, tw := range tl {
			canon[i] = CanonTweet(tw)
		}
		obs.Timelines[id] = canon
		return err
	}
	for _, id := range cfg.TweetUsers {
		if err := timeline(id, 1<<20); err != nil {
			return obs, fmt.Errorf("timeline %d: %w", id, err)
		}
	}
	// Full: synthetic timelines, a deterministic sample of every 7th account.
	for id := twitter.UserID(1); cfg.Full && int(id) <= n; id += 7 {
		if err := timeline(id, 25); err != nil {
			return obs, err
		}
	}
	for _, name := range append(append([]string(nil), cfg.Names...), "zz-no-such-name") {
		id, err := sys.LookupName(name)
		if err != nil {
			id = -1
		}
		obs.Lookups[name] = int64(id)
	}
	// Batch paths: a probe list spanning every shard of any layout, plus
	// unknown IDs that must be silently skipped.
	probe := []twitter.UserID{0, -5, twitter.UserID(n + 3)}
	step := max(1, n/64)
	for id := 1; id <= n; id += step {
		probe = append(probe, twitter.UserID(id))
	}
	for _, p := range sys.Profiles(probe) {
		obs.BatchProfiles = append(obs.BatchProfiles, CanonProfile(p))
	}
	obs.ClassCounts = sys.ClassCounts(probe)
	return obs, nil
}

// logical returns a copy of a full observation without what the logical
// vocabulary lacks: synthetic timelines (those of accounts outside
// tweetUsers) and snapshot bytes. Normalize finishes the reduction.
func (obs Observation) logical(tweetUsers []twitter.UserID) Observation {
	out := obs
	out.Profiles = append([]ObsProfile(nil), obs.Profiles...)
	out.BatchProfiles = append([]ObsProfile(nil), obs.BatchProfiles...)
	out.Timelines = make(map[twitter.UserID][]ObsTweet, len(tweetUsers))
	for _, id := range tweetUsers {
		out.Timelines[id] = obs.Timelines[id]
	}
	out.SnapshotBytes = nil
	return out
}

// heldBy narrows a full observation to what Observe reports with Holds
// set to holds: heavy state of held accounts only, and no snapshot bytes.
func (obs Observation) heldBy(holds func(twitter.UserID) bool) Observation {
	out := obs
	out.Targets = make(map[twitter.UserID]targetObs)
	for id, t := range obs.Targets {
		if holds(id) {
			out.Targets[id] = t
		}
	}
	out.Timelines = make(map[twitter.UserID][]ObsTweet)
	for id, tl := range obs.Timelines {
		if holds(id) {
			out.Timelines[id] = tl
		}
	}
	out.SnapshotBytes = nil
	return out
}

// Normalize reduces an observation to logical normal form: synthesised
// strings become presence markers, synthetic screen names are blanked
// (explicit ones, listed in explicit, are kept verbatim), and snapshot
// bytes are dropped. Idempotent; the reference model's observations are
// already in this form.
func Normalize(obs *Observation, explicit map[twitter.UserID]string) {
	mark := func(s string) string {
		if s != "" {
			return "set"
		}
		return ""
	}
	norm := func(p *ObsProfile) {
		p.Name = ""
		if _, ok := explicit[p.ID]; !ok {
			p.ScreenName = ""
		}
		p.Bio = mark(p.Bio)
		p.Location = mark(p.Location)
		p.URL = mark(p.URL)
	}
	for i := range obs.Profiles {
		norm(&obs.Profiles[i])
	}
	for i := range obs.BatchProfiles {
		norm(&obs.BatchProfiles[i])
	}
	obs.SnapshotBytes = nil
}

// DiffObservations compares two observations and describes the first
// difference found, or returns "".
func DiffObservations(a, b Observation) string {
	if a.Users != b.Users {
		return fmt.Sprintf("user count: %d vs %d", a.Users, b.Users)
	}
	for i := range a.Profiles {
		if a.Profiles[i] != b.Profiles[i] {
			return fmt.Sprintf("profile %d:\n  %+v\n  %+v", i+1, a.Profiles[i], b.Profiles[i])
		}
	}
	for i := range a.Classes {
		if a.Classes[i] != b.Classes[i] || a.FollowerCount[i] != b.FollowerCount[i] {
			return fmt.Sprintf("count/class of user %d: (%v,%d) vs (%v,%d)", i+1,
				a.Classes[i], a.FollowerCount[i], b.Classes[i], b.FollowerCount[i])
		}
	}
	if len(a.Targets) != len(b.Targets) {
		return fmt.Sprintf("target count: %d vs %d", len(a.Targets), len(b.Targets))
	}
	for id, ta := range a.Targets {
		tb, ok := b.Targets[id]
		if !ok {
			return fmt.Sprintf("target %d materialised in A only", id)
		}
		if !reflect.DeepEqual(ta.Edges, tb.Edges) {
			return fmt.Sprintf("edges of target %d:\n  %v\n  %v", id, ta.Edges, tb.Edges)
		}
		if ta.FriendsSet != tb.FriendsSet || !reflect.DeepEqual(ta.FriendsList, tb.FriendsList) {
			return fmt.Sprintf("friends of target %d:\n  %v (set=%v)\n  %v (set=%v)", id,
				ta.FriendsList, ta.FriendsSet, tb.FriendsList, tb.FriendsSet)
		}
		if !reflect.DeepEqual(ta.Walk, tb.Walk) || !reflect.DeepEqual(ta.WalkSeqs, tb.WalkSeqs) || !reflect.DeepEqual(ta.WalkTotals, tb.WalkTotals) {
			return fmt.Sprintf("pagination walk of target %d:\n  %v %v %v\n  %v %v %v", id,
				ta.Walk, ta.WalkSeqs, ta.WalkTotals, tb.Walk, tb.WalkSeqs, tb.WalkTotals)
		}
	}
	if !reflect.DeepEqual(a.Timelines, b.Timelines) {
		return fmt.Sprintf("timelines differ: %v vs %v", a.Timelines, b.Timelines)
	}
	if !reflect.DeepEqual(a.Lookups, b.Lookups) {
		return fmt.Sprintf("name lookups: %v vs %v", a.Lookups, b.Lookups)
	}
	if !reflect.DeepEqual(a.BatchProfiles, b.BatchProfiles) {
		return fmt.Sprintf("batch profiles differ (%d vs %d entries)", len(a.BatchProfiles), len(b.BatchProfiles))
	}
	if !reflect.DeepEqual(a.ClassCounts, b.ClassCounts) {
		return fmt.Sprintf("class counts: %v vs %v", a.ClassCounts, b.ClassCounts)
	}
	if !bytes.Equal(a.SnapshotBytes, b.SnapshotBytes) {
		return fmt.Sprintf("snapshot bytes differ (%d vs %d bytes)", len(a.SnapshotBytes), len(b.SnapshotBytes))
	}
	return ""
}

// StoreSeed is the synthesis seed every deployment's store is built on, so
// full observations compare across deployments.
const StoreSeed = 42

// Deployment is one way of running the store and bringing it back, or of
// serving what it holds. A deployment has New or Observe, never neither.
type Deployment struct {
	Name string
	// New builds a fresh Applier whose Roundtrip takes that way back.
	New func(tb TB) Applier
	// Full deployments must also agree with each other on full
	// observations: synthesised strings, synthetic timelines and snapshot
	// bytes. Only deployments whose stores share a seed and a clock qualify.
	Full bool
	// Observe makes the deployment an observer: it writes nothing, and at
	// every check it reports how what it serves differs from the live state.
	Observe func(tb TB, live Live) error
}

// Live is what an observer is shown: the first Full lane's observation,
// snapshot bytes included, and the ObserveConfig it was taken with.
type Live struct {
	Obs    Observation
	Config ObserveConfig
}

// InMemory returns the in-memory deployments: the store at 1, 2, 7 and 16
// shards, each coming back through a snapshot write and read, and the range
// observer over the first of them.
func InMemory() []Deployment {
	return append(Shards(1, 2, 7, 16), Deployment{Name: "range", Observe: observeRange})
}

// observeRange range-loads every member of 1-, 2- and 4-node rings from the
// live snapshot; each serves what the live store serves for what it holds.
func observeRange(_ TB, live Live) error {
	for _, nodes := range []int{1, 2, 4} {
		ring := router.NewRing(router.DefaultSlots, nodes)
		for i := 0; i < nodes; i++ {
			mcfg := live.Config
			mcfg.Holds = func(id twitter.UserID) bool { return ring.Keep(i, int64(id)) }
			member, err := twitter.ReadSnapshotRange(bytes.NewReader(live.Obs.SnapshotBytes), simclock.NewVirtualAtEpoch(), mcfg.Holds)
			if err != nil {
				return fmt.Errorf("range load of node %d/%d: %v", i, nodes, err)
			}
			got, err := Observe(member, mcfg)
			if err != nil {
				return fmt.Errorf("node %d/%d observation: %v", i, nodes, err)
			}
			if diff := DiffObservations(live.Obs.heldBy(mcfg.Holds), got); diff != "" {
				return fmt.Errorf("node %d/%d: %s", i, nodes, diff)
			}
		}
	}
	return nil
}

// Shards returns one Full store deployment per shard count.
func Shards(counts ...int) (deps []Deployment) {
	for _, shards := range counts {
		deps = append(deps, Deployment{
			Name: fmt.Sprintf("store/shards=%d", shards),
			New:  func(TB) Applier { return NewStoreApplier(StoreSeed, twitter.WithShards(shards)) },
			Full: true,
		})
	}
	return deps
}

// TB is the subset of *testing.T the oracle reports through.
type TB interface {
	Helper()
	Fatalf(format string, args ...any)
	Logf(format string, args ...any)
	TempDir() string
}

// CheckConfig configures one Check.
type CheckConfig struct {
	Seed uint64
	// Ops is a preset stream; nil generates N ops from Seed.
	Ops []Op
	N   int
	// Prefix holds ops every deployment's New has already applied; only
	// the Refs replay them, before the stream.
	Prefix      []Op
	Deployments []Deployment
	CheckEvery  int // observation cadence in ops; 0 = 1000
}

// Mismatch describes the first divergence of a run.
type Mismatch struct {
	Deployment string
	Index      int // op index the divergence surfaced at
	Op         Op
	Detail     string
	// Ops is the stream the divergence was found on (shrunk, from find).
	Ops  []Op
	deps []Deployment
}

func (m *Mismatch) String() string {
	return fmt.Sprintf("deployment %s, op %d (%s): %s", m.Deployment, m.Index, m.Op, m.Detail)
}

// lane is one writing deployment in lockstep with its own reference model,
// whose clock follows the deployment's across every path back.
type lane struct {
	dep   Deployment
	app   Applier
	clock *simclock.Virtual
	ref   *Ref
}

// Check replays cfg's stream against every deployment, each in lockstep
// with its own Ref, and fails t with a shrunk reproduction naming the
// deployment on the first divergence.
func Check(t TB, cfg CheckConfig) {
	t.Helper()
	m := cfg.find(t)
	if m == nil {
		return
	}
	var buf bytes.Buffer
	for i, op := range m.Ops {
		if i >= 50 {
			fmt.Fprintf(&buf, "  ... %d more ops\n", len(m.Ops)-i)
			break
		}
		fmt.Fprintf(&buf, "  %3d: %s\n", i, op)
	}
	stream := fmt.Sprintf("seed %d", cfg.Seed)
	if cfg.Ops != nil {
		stream = "preset stream"
	}
	t.Fatalf("differential mismatch (%s) shrunk to %d ops:\n%s%s", stream, len(m.Ops), buf.String(), m)
}

// find runs the stream and, on a divergence, shrinks it against the
// deployments involved and returns the mismatch of the shrunk stream.
func (cfg CheckConfig) find(t TB) *Mismatch {
	ops := cfg.Ops
	if ops == nil {
		ops = Generate(cfg.Seed, cfg.N)
	}
	m := cfg.run(t, ops)
	if m == nil {
		return nil
	}
	t.Logf("divergence on the full stream of %d ops: %s", len(ops), m)
	sub := cfg
	sub.Deployments = m.deps
	shrunk := Shrink(ops, func(ops []Op) bool { return sub.run(t, ops) != nil })
	if final := sub.run(t, shrunk); final != nil {
		final.Ops = shrunk
		return final
	}
	m.Ops = ops
	return m
}

// run replays ops against fresh instances of every deployment and returns
// the first divergence, or nil.
func (cfg CheckConfig) run(t TB, ops []Op) *Mismatch {
	var lanes []*lane
	var observers []Deployment
	defer func() {
		for _, l := range lanes {
			if c, ok := l.app.(io.Closer); ok {
				c.Close()
			}
		}
	}()
	for _, d := range cfg.Deployments {
		switch {
		case d.Observe != nil:
			observers = append(observers, d)
		case d.New != nil:
			clock := simclock.NewVirtualAtEpoch()
			lanes = append(lanes, &lane{dep: d, app: d.New(t), clock: clock, ref: NewRef(clock)})
		default:
			t.Fatalf("deployment %s has neither New nor Observe", d.Name)
		}
	}
	book := bookkeeping{explicit: make(map[twitter.UserID]string), tweeted: make(map[twitter.UserID]bool)}
	for _, op := range cfg.Prefix {
		for i, l := range lanes {
			if res := Apply(l.ref, op); i == 0 {
				book.note(op, res)
			}
		}
	}
	every := cfg.CheckEvery
	if every <= 0 {
		every = 1000
	}
	for i, op := range ops {
		for j, l := range lanes {
			got, want := Apply(l.app, op), Apply(l.ref, op)
			if !reflect.DeepEqual(got, want) {
				return &Mismatch{Deployment: l.dep.Name, Index: i, Op: op, deps: []Deployment{l.dep},
					Detail: fmt.Sprintf("result: %+v, reference %+v", got, want)}
			}
			if now := l.app.Now(); op.Kind == OpSnapshot && now.After(l.clock.Now()) {
				l.clock.SetNow(now)
			}
			if j == 0 {
				book.note(op, want)
			}
		}
		if (i+1)%every == 0 {
			if m := cfg.check(t, lanes, observers, &book); m != nil {
				m.Index, m.Op = i, op
				return m
			}
		}
	}
	if len(ops) > 0 && len(ops)%every == 0 {
		return nil // the last op was just checked
	}
	m := cfg.check(t, lanes, observers, &book)
	if m != nil && len(ops) > 0 {
		m.Index, m.Op = len(ops)-1, ops[len(ops)-1]
	}
	return m
}

// bookkeeping tracks what observations probe beyond the account range: the
// explicit screen names created and the accounts with explicit tweets.
type bookkeeping struct {
	explicit   map[twitter.UserID]string
	names      []string
	tweetUsers []twitter.UserID
	tweeted    map[twitter.UserID]bool
}

func (b *bookkeeping) note(op Op, res Result) {
	if res.Err != "" {
		return
	}
	if op.Kind == OpCreate && op.Params.ScreenName != "" {
		b.explicit[res.ID] = op.Params.ScreenName
		b.names = append(b.names, op.Params.ScreenName)
	}
	if op.Kind == OpTweet && !b.tweeted[op.Target] {
		b.tweeted[op.Target] = true
		b.tweetUsers = append(b.tweetUsers, op.Target)
	}
}

// check compares every lane with its reference in logical normal form and
// the Full lanes with each other on full observations, then shows every
// observer the first Full lane.
func (cfg CheckConfig) check(t TB, lanes []*lane, observers []Deployment, book *bookkeeping) *Mismatch {
	ocfg := ObserveConfig{TweetUsers: book.tweetUsers, Names: book.names}
	fail := func(detail string, deps ...Deployment) *Mismatch {
		names := deps[0].Name
		if len(deps) > 1 {
			names = deps[1].Name + " vs " + deps[0].Name
		}
		return &Mismatch{Deployment: names, Detail: detail, deps: deps}
	}
	var live *lane
	var liveObs Observation
	var liveCfg ObserveConfig
	for _, l := range lanes {
		fcfg := ocfg
		fcfg.Full = l.dep.Full
		full, errA := Observe(l.app, fcfg)
		if errA == nil && l.dep.Full {
			full.SnapshotBytes, errA = l.app.Snapshot()
		}
		want, errB := Observe(l.ref, ocfg)
		if errA != nil || errB != nil {
			return fail(fmt.Sprintf("observation errors: %v, reference %v", errA, errB), l.dep)
		}
		got := full.logical(book.tweetUsers)
		Normalize(&got, book.explicit)
		Normalize(&want, book.explicit)
		if d := DiffObservations(got, want); d != "" {
			return fail("observation vs reference: "+d, l.dep)
		}
		if !l.dep.Full {
			continue
		}
		if live == nil {
			live, liveObs, liveCfg = l, full, fcfg
			continue
		}
		if d := DiffObservations(liveObs, full); d != "" {
			return fail("full observation: "+d, live.dep, l.dep)
		}
	}
	for _, d := range observers {
		if live == nil {
			return fail("no Full deployment to observe", d)
		}
		if err := d.Observe(t, Live{Obs: liveObs, Config: liveCfg}); err != nil {
			return fail(err.Error(), live.dep, d)
		}
	}
	return nil
}

// Shrink reduces a failing op stream to a (locally) minimal one that still
// satisfies the failing predicate, using delta debugging: progressively
// smaller chunks are removed as long as the failure persists. The attempt
// budget bounds shrink time on very long streams.
func Shrink(ops []Op, failing func([]Op) bool) []Op {
	cur := append([]Op(nil), ops...)
	const maxAttempts = 800
	attempts := 0
	for chunk := len(cur) / 2; chunk >= 1; chunk /= 2 {
		for i := 0; i+chunk <= len(cur) && attempts < maxAttempts; {
			cand := make([]Op, 0, len(cur)-chunk)
			cand = append(cand, cur[:i]...)
			cand = append(cand, cur[i+chunk:]...)
			attempts++
			if failing(cand) {
				cur = cand
			} else {
				i += chunk
			}
		}
		if attempts >= maxAttempts {
			break
		}
	}
	return cur
}

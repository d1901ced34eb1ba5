// Package difftest is a differential test harness for the platform store.
//
// It generates seeded, randomized streams over the full Store op vocabulary
// (create / follow / unfollow / purge / tweet / setfriends / page /
// snapshot-roundtrip),
// replays each stream against two implementations of the same observable
// contract, and asserts that every op result and every periodic observation
// of full platform state is identical. On divergence the failing stream is
// shrunk (delta debugging) to a minimal reproduction before reporting.
//
// Two pairings matter:
//
//   - sharded store vs Ref, the trivially-correct single-lock reference
//     model (ref.go): proves the lock-striped store's op semantics against
//     an implementation that shares no code with it. Observations are
//     compared in logical normal form (synthesised strings reduced to
//     presence markers), since the reference deliberately has no synthesis
//     machinery.
//   - sharded store vs sharded store with a different shard count: proves
//     shard-count transparency on *every* observable — synthesised screen
//     names, bios, synthetic timelines, and byte-identical snapshots.
//
// The package is reusable from any test: build op streams with Generate (or
// by hand), appliers with NewStoreApplier / NewRef, and drive them with
// RunDiff.
package difftest

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"time"

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
	// Roundtrip serialises and reloads the full state in place (identity
	// for systems without a serialised form).
	Roundtrip() error
	// Snapshot returns the canonical snapshot bytes, or nil for systems
	// without a serialised form.
	Snapshot() ([]byte, error)
}

// StoreApplier wraps *twitter.Store as an Applier; Roundtrip swaps the
// store for one reloaded from its own snapshot, preserving the configured
// shard count.
type StoreApplier struct {
	System
	clock *simclock.Virtual
	opts  []twitter.Option
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

func (a *StoreApplier) Snapshot() ([]byte, error) {
	var buf bytes.Buffer
	if err := a.Store().WriteSnapshot(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (a *StoreApplier) Roundtrip() error {
	raw, err := a.Snapshot()
	if err != nil {
		return err
	}
	loaded, err := twitter.ReadSnapshot(bytes.NewReader(raw), a.clock, a.opts...)
	if err != nil {
		return err
	}
	a.System = loaded
	return nil
}

// wrappedStore adapts an externally constructed store — e.g. one recovered
// from a write-ahead log — as an Applier, so Observe and Apply can drive
// it. Roundtrip is unsupported: op streams applied through a wrapped store
// must not contain OpSnapshot (the WAL harnesses filter it out).
type wrappedStore struct{ *twitter.Store }

// WrapStore adapts st as an Applier.
func WrapStore(st *twitter.Store) Applier { return wrappedStore{st} }

func (w wrappedStore) Roundtrip() error {
	return errors.New("difftest: wrapped store does not support snapshot roundtrip")
}

func (w wrappedStore) Snapshot() ([]byte, error) {
	var buf bytes.Buffer
	if err := w.Store.WriteSnapshot(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// obsTweet is a Tweet with its timestamp canonicalised to unix seconds, so
// comparisons never depend on time.Time's internal representation.
type obsTweet struct {
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

func canonTweet(tw twitter.Tweet) obsTweet {
	return obsTweet{
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
	Tweet obsTweet             // OpTweet
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
		res.Tweet, res.Err = canonTweet(tw), errClass(err)
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

// ObserveConfig controls how much observable state an observation captures.
type ObserveConfig struct {
	// Full compares synthesised content too: profile strings as-is,
	// synthetic timelines for a sample of accounts, and snapshot bytes.
	// Off, observations are reduced to logical normal form (the reference
	// model's vocabulary).
	Full bool
	// PageLimit is the page size used for full pagination walks.
	PageLimit int
	// TweetUsers are accounts with explicit tweets; their timelines are
	// compared in every mode.
	TweetUsers []twitter.UserID
	// Names are explicit screen names to probe through LookupName.
	Names []string
}

// Observation is a canonicalised dump of all observable platform state.
type Observation struct {
	Users         int
	Profiles      []obsProfile
	Classes       []twitter.Class
	FollowerCount []int
	Targets       map[twitter.UserID]targetObs
	Timelines     map[twitter.UserID][]obsTweet
	Lookups       map[string]int64
	BatchProfiles []obsProfile
	ClassCounts   map[twitter.Class]int
	SnapshotBytes []byte
}

type obsProfile struct {
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

func canonProfile(p twitter.Profile) obsProfile {
	var last int64
	if !p.LastTweetAt.IsZero() {
		last = p.LastTweetAt.Unix()
	}
	return obsProfile{
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

// Observe captures a full canonicalised observation of sys.
func Observe(sys Applier, cfg ObserveConfig) (Observation, error) {
	limit := cfg.PageLimit
	if limit <= 0 {
		limit = 7
	}
	n := sys.UserCount()
	obs := Observation{
		Users:         n,
		Profiles:      make([]obsProfile, 0, n),
		Classes:       make([]twitter.Class, 0, n),
		FollowerCount: make([]int, 0, n),
		Targets:       make(map[twitter.UserID]targetObs),
		Timelines:     make(map[twitter.UserID][]obsTweet),
		Lookups:       make(map[string]int64),
	}
	for id := twitter.UserID(1); int(id) <= n; id++ {
		p, err := sys.Profile(id)
		if err != nil {
			return obs, fmt.Errorf("profile %d: %w", id, err)
		}
		obs.Profiles = append(obs.Profiles, canonProfile(p))
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
		if !sys.IsTarget(id) {
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
	for _, id := range cfg.TweetUsers {
		tl, err := sys.Timeline(id, 1<<20)
		if err != nil {
			return obs, fmt.Errorf("timeline %d: %w", id, err)
		}
		canon := make([]obsTweet, len(tl))
		for i, tw := range tl {
			canon[i] = canonTweet(tw)
		}
		obs.Timelines[id] = canon
	}
	if cfg.Full {
		// Synthetic timelines: a deterministic sample of every 7th account.
		for id := twitter.UserID(1); int(id) <= n; id += 7 {
			tl, err := sys.Timeline(id, 25)
			if err != nil {
				return obs, err
			}
			canon := make([]obsTweet, len(tl))
			for i, tw := range tl {
				canon[i] = canonTweet(tw)
			}
			obs.Timelines[id] = canon
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
		obs.BatchProfiles = append(obs.BatchProfiles, canonProfile(p))
	}
	obs.ClassCounts = sys.ClassCounts(probe)
	if cfg.Full {
		snap, err := sys.Snapshot()
		if err != nil {
			return obs, err
		}
		obs.SnapshotBytes = snap
	}
	return obs, nil
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
	norm := func(p *obsProfile) {
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

// Mismatch describes the first divergence of a differential run.
type Mismatch struct {
	Index  int // op index the divergence surfaced at
	Op     Op
	Detail string
}

func (m *Mismatch) String() string {
	return fmt.Sprintf("op %d (%s): %s", m.Index, m.Op, m.Detail)
}

// RunConfig configures one differential run.
type RunConfig struct {
	Seed       uint64
	Ops        []Op
	MakeA      func() Applier
	MakeB      func() Applier
	Logical    bool // normalise observations (required when one side is Ref)
	CheckEvery int  // full-observation cadence in ops; 0 = 1000
	PageLimit  int
}

// RunOnce replays the stream against fresh instances of both systems and
// returns the first divergence, or nil.
func RunOnce(cfg RunConfig) *Mismatch {
	a, b := cfg.MakeA(), cfg.MakeB()
	checkEvery := cfg.CheckEvery
	if checkEvery <= 0 {
		checkEvery = 1000
	}
	explicit := make(map[twitter.UserID]string)
	var names []string
	var tweetUsers []twitter.UserID
	tweeted := make(map[twitter.UserID]bool)
	check := func(i int, op Op) *Mismatch {
		ocfg := ObserveConfig{
			Full:       !cfg.Logical,
			PageLimit:  cfg.PageLimit,
			TweetUsers: tweetUsers,
			Names:      names,
		}
		oa, errA := Observe(a, ocfg)
		ob, errB := Observe(b, ocfg)
		if errA != nil || errB != nil {
			return &Mismatch{Index: i, Op: op, Detail: fmt.Sprintf("observation errors: %v vs %v", errA, errB)}
		}
		if cfg.Logical {
			Normalize(&oa, explicit)
			Normalize(&ob, explicit)
		}
		if d := DiffObservations(oa, ob); d != "" {
			return &Mismatch{Index: i, Op: op, Detail: "observation: " + d}
		}
		return nil
	}
	for i, op := range cfg.Ops {
		ra := Apply(a, op)
		rb := Apply(b, op)
		if !reflect.DeepEqual(ra, rb) {
			return &Mismatch{Index: i, Op: op, Detail: fmt.Sprintf("result: %+v vs %+v", ra, rb)}
		}
		if op.Kind == OpCreate && ra.Err == "" && op.Params.ScreenName != "" {
			explicit[ra.ID] = op.Params.ScreenName
			names = append(names, op.Params.ScreenName)
		}
		if op.Kind == OpTweet && ra.Err == "" && !tweeted[op.Target] {
			tweeted[op.Target] = true
			tweetUsers = append(tweetUsers, op.Target)
		}
		if (i+1)%checkEvery == 0 {
			if m := check(i, op); m != nil {
				return m
			}
		}
	}
	last := len(cfg.Ops) - 1
	var lastOp Op
	if last >= 0 {
		lastOp = cfg.Ops[last]
	}
	return check(last, lastOp)
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

// TB is the subset of *testing.T the harness reports through.
type TB interface {
	Helper()
	Fatalf(format string, args ...any)
	Logf(format string, args ...any)
}

// RunDiff generates a stream from cfg.Seed (unless cfg.Ops is preset),
// replays it differentially, and fails t with a shrunk minimal
// reproduction on any divergence.
func RunDiff(t TB, cfg RunConfig, n int) {
	t.Helper()
	if cfg.Ops == nil {
		cfg.Ops = Generate(cfg.Seed, n)
	}
	mis := RunOnce(cfg)
	if mis == nil {
		return
	}
	shrunk := Shrink(cfg.Ops, func(ops []Op) bool {
		c := cfg
		c.Ops = ops
		return RunOnce(c) != nil
	})
	c := cfg
	c.Ops = shrunk
	final := RunOnce(c)
	var buf bytes.Buffer
	for i, op := range shrunk {
		if i >= 50 {
			fmt.Fprintf(&buf, "  ... %d more ops\n", len(shrunk)-i)
			break
		}
		fmt.Fprintf(&buf, "  %3d: %s\n", i, op)
	}
	t.Fatalf("differential mismatch (seed %d): %s\nshrunk to %d ops (from %d):\n%son shrunk stream: %s",
		cfg.Seed, mis, len(shrunk), len(cfg.Ops), buf.String(), final)
}

//fp:hotpath

package twitter

import (
	"math"
	"time"
)

// ProfileView is the attribute half of a users/lookup profile: counters,
// second-granular unix times, behaviour ratios and flags, with every string
// reduced to whether it is filled in. That is all a classifier ever reads of
// a profile — the analytics test screen names, bios and URLs for emptiness
// and emptiness is a record flag — so an audit can look at an account
// without anyone fabricating its strings. Profile is a view plus strings;
// both are derived from a record by viewOf, the one place the record →
// profile rules live.
//
// The view is a small value type, passed by value: nothing on the
// per-profile path of an audit holds a pointer that would force it to the
// heap.
type ProfileView struct {
	ID UserID
	// CreatedAt is the account's creation instant in unix seconds.
	CreatedAt int64
	// LastTweetAt is the most recent tweet's instant in unix seconds;
	// 0 if the account has never tweeted.
	LastTweetAt    int64
	FollowersCount int
	FriendsCount   int
	StatusesCount  int
	Behavior       Behavior

	HasName, HasBio, HasLocation, HasURL bool
	// DefaultProfileImage reports whether the account still shows the
	// default "egg" avatar (a Socialbakers fake criterion).
	DefaultProfileImage bool
	Protected           bool
	Verified            bool
}

// Created returns CreatedAt as a time.
func (v ProfileView) Created() time.Time { return unixUTC(v.CreatedAt) }

// LastTweet returns LastTweetAt as a time; zero if the account has never
// tweeted.
func (v ProfileView) LastTweet() time.Time {
	if v.LastTweetAt == 0 {
		return time.Time{}
	}
	return unixUTC(v.LastTweetAt)
}

// Since returns now.Sub(time.Unix(sec, 0)): how long before now the unix
// second sec lies, the arithmetic every inactivity and age rule does on a
// view's times. Within ±292 years (no overflow) it is two integer
// operations on now's own second and nanosecond, with no time.Time built
// per account; beyond that it is Time.Sub itself, with its saturation.
func Since(now time.Time, sec int64) time.Duration {
	// maxSpan keeps d*Second plus the nanoseconds inside an int64, and a
	// sec inside ±2⁶² keeps now.Unix() - sec from wrapping into that span.
	const maxSpan = math.MaxInt64/int64(time.Second) - 1
	if d := now.Unix() - sec; d > -maxSpan && d < maxSpan && sec > -1<<62 && sec < 1<<62 {
		return time.Duration(d)*time.Second + time.Duration(now.Nanosecond())
	}
	return now.Sub(time.Unix(sec, 0))
}

// HasNeverTweeted reports whether the account has no statuses at all.
func (v ProfileView) HasNeverTweeted() bool { return v.StatusesCount == 0 }

// FollowerFriendRatio returns followers/friends, the signal StatusPeople's
// founder calls the most meaningful one ("fake accounts tend to follow a lot
// of people but don't have many followers"). Returns +Inf-free semantics:
// if friends is zero, returns float64(followers).
func (v ProfileView) FollowerFriendRatio() float64 {
	if v.FriendsCount == 0 {
		return float64(v.FollowersCount)
	}
	return float64(v.FollowersCount) / float64(v.FriendsCount)
}

// View reduces a materialised profile — one decoded off the wire, or built
// by hand in a test — to its attributes. Times are truncated to the second,
// the resolution the store keeps and the wire carries.
func (p Profile) View() ProfileView {
	v := ProfileView{
		ID:                  p.ID,
		CreatedAt:           p.CreatedAt.Unix(),
		FollowersCount:      p.FollowersCount,
		FriendsCount:        p.FriendsCount,
		StatusesCount:       p.StatusesCount,
		Behavior:            p.Behavior,
		HasName:             p.Name != "",
		HasBio:              p.Bio != "",
		HasLocation:         p.Location != "",
		HasURL:              p.URL != "",
		DefaultProfileImage: p.DefaultProfileImage,
		Protected:           p.Protected,
		Verified:            p.Verified,
	}
	if !p.LastTweetAt.IsZero() {
		v.LastTweetAt = p.LastTweetAt.Unix()
	}
	return v
}

// viewOf derives id's attribute view from its record into v. The caller
// must hold s.mu: statuses and lastTweetAt move under it. It fills v in
// place so a scan writes each view once, where it is kept.
func (s *Store) viewOf(v *ProfileView, id UserID, rec *record) {
	*v = ProfileView{
		ID:             id,
		CreatedAt:      rec.createdAt,
		LastTweetAt:    rec.lastTweetAt,
		FollowersCount: int(rec.followers),
		FriendsCount:   int(rec.friends),
		StatusesCount:  int(rec.statuses),
		Behavior: Behavior{
			RetweetRatio:   float64(rec.retweetPct) / 100,
			LinkRatio:      float64(rec.linkPct) / 100,
			SpamRatio:      float64(rec.spamPct) / 100,
			DuplicateRatio: float64(rec.dupPct) / 100,
		},
		HasName:             true, // every account has a human name
		HasBio:              rec.has(flagHasBio),
		HasLocation:         rec.has(flagHasLocation),
		HasURL:              rec.has(flagHasURL),
		DefaultProfileImage: rec.has(flagDefaultImage),
		Protected:           rec.has(flagProtected),
		Verified:            rec.has(flagVerified),
	}
	if td := s.targetOf(id); td != nil {
		// Only a follower list that was ever materialised overrides the
		// synthetic counter. Targets promoted by SetFriends/AppendTweet
		// alone keep their synthetic count — promotion must not zero a
		// profile's followers (that corrupted FollowerFriendRatio, the
		// paper's headline criterion).
		if ev := td.edges.view(); ev.ever {
			v.FollowersCount = ev.total
		}
		if fl := td.friends.Load(); fl != nil {
			v.FriendsCount = len(*fl)
		}
	}
}

// scanChunk is how many ids ScanProfiles views per read lock: enough that
// the lock is taken once per 128 ids instead of once per id, and few enough
// that the chunk's views sit in an ~11 KB array on the caller's stack and a
// writer waits for at most one chunk.
const scanChunk = 128

// ScanProfiles calls fn with the attribute view of each account in ids, in
// input order, skipping unknown ids as Profiles does. It allocates nothing:
// no string is synthesised and no profile is materialised, so a 9,604-account
// audit sample costs 9,604 record reads. The ids are taken scanChunk at a
// time; the store is read-locked once per chunk while its views are derived
// into an array on the stack, and fn runs for the chunk once the lock is
// released. Each view is one committed state of its account; the views of
// different accounts may come from different instants, as they always could.
func (s *Store) ScanProfiles(ids []UserID, fn func(ProfileView)) {
	// One existence cutoff for the whole batch.
	limit := s.users.Load()
	var views [scanChunk]ProfileView
	for len(ids) > 0 {
		chunk := ids[:min(scanChunk, len(ids))]
		ids = ids[len(chunk):]
		s.mu.RLock()
		for i, id := range chunk {
			views[i].ID = 0 // no view; IDs start at 1
			if id >= 1 && int64(id) <= limit {
				s.viewOf(&views[i], id, &s.recs[id-1])
			}
		}
		s.mu.RUnlock()
		for i := range chunk {
			if views[i].ID != 0 {
				fn(views[i])
			}
		}
	}
}

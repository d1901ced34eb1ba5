//fp:hotpath

package twitter

import "time"

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

// viewOf derives id's attribute view from its record. sh must be id's
// owning shard and the caller must hold its lock: statuses and lastTweetAt
// move under it.
func viewOf(sh *shard, id UserID, rec *record) ProfileView {
	v := ProfileView{
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
	if td := sh.targetOf(id); td != nil {
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
	return v
}

// ScanProfiles calls fn with the attribute view of each account in ids, in
// input order, skipping unknown ids as Profiles does. It allocates nothing:
// no string is synthesised and no profile is materialised, so a 9,604-account
// audit sample costs 9,604 record reads. Each view is derived under its
// shard's read lock and handed to fn after the lock is released.
func (s *Store) ScanProfiles(ids []UserID, fn func(ProfileView)) {
	// One existence cutoff for the whole batch, as in groupByShard.
	limit := s.users.Load()
	for _, id := range ids {
		if id < 1 || int64(id) > limit {
			continue
		}
		sh := s.shardFor(id)
		slot := s.slotFor(id)
		sh.mu.RLock()
		if slot >= len(sh.recs) { // as recordIn: never yield an uncommitted slot
			sh.mu.RUnlock()
			continue
		}
		v := viewOf(sh, id, &sh.recs[slot])
		sh.mu.RUnlock()
		fn(v)
	}
}

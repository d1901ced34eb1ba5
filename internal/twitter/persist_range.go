package twitter

import (
	"fmt"
	"io"

	"fakeproject/internal/simclock"
)

// Range snapshots: the partitioned multi-node deployment splits one
// canonical snapshot across a ring of nodes. Every node loads the full
// record and name space (a record is ~40 bytes, so even a 10M-account
// universe costs a few hundred MB everywhere, and profiles, name lookups
// and the synthetic-friends permutation stay globally consistent), but the
// heavy per-target state — edge segments, explicit tweets, materialised
// friend lists — is installed only for the accounts the node owns or
// replicates.
//
// The one observable that would leak a target's absence is its profile:
// profiles override the record's synthetic followers/friends counters with
// the materialised state when it exists. ReadSnapshotRange therefore folds
// those override counts into every target's record — uniformly, owned or
// not — so a profile served from any node is a pure function of record and
// name, byte-identical ring-wide. Folding is uniform on purpose: it keeps
// the record space identical across all holders of a range, which is what
// makes WriteSnapshotRange exports comparable byte-for-byte between a
// range's primary and its replica.

// WriteSnapshotRange serialises the store with all records and names but
// only the targets keep selects — the ownership-transfer stream a node
// exports for a range it holds. The output is a loadable snapshot and
// is canonical: two stores holding the same records and the same kept
// targets produce identical bytes, regardless of what other targets each
// happens to hold.
func (s *Store) WriteSnapshotRange(w io.Writer, keep func(UserID) bool) error {
	return s.writeSnapshot(w, nil, keep)
}

// ReadSnapshotRange reconstructs a partial Store from a snapshot: all
// records and names load, every target's override counts are folded into
// its record (see the package comment above), and only targets selected by
// keep get their heavy state installed. A nil keep folds every target and
// installs them all — the configuration the single-node baseline of the
// cross-topology differential tests loads, so its exports compare
// byte-for-byte with the partial nodes'.
func ReadSnapshotRange(r io.Reader, clock simclock.Clock, keep func(UserID) bool, opts ...Option) (*Store, error) {
	return readSnapshot(r, clock, rangeKeep(keep), opts...)
}

// rangeKeep resolves a range reader's nil keep to "every target": the nil
// the shared reader understands means "not a range load, do not fold".
func rangeKeep(keep func(UserID) bool) func(UserID) bool {
	if keep == nil {
		return func(UserID) bool { return true }
	}
	return keep
}

// LoadSnapshotRangeFile is ReadSnapshotRange over a snapshot file, with the
// operator-facing error translation of LoadSnapshotFile.
func LoadSnapshotRangeFile(path string, clock simclock.Clock, keep func(UserID) bool, opts ...Option) (*Store, error) {
	return loadSnapshotFile(path, clock, rangeKeep(keep), opts...)
}

// foldTargetCounts rewrites pt's record so the profile the record alone
// produces matches the profile the materialised state would: the followers
// counter becomes the live edge count whenever an edge was ever
// materialised (the same "ever" rule profileIn applies — a target promoted
// by tweets or friends alone keeps its synthetic counter), and the friends
// counter becomes the materialised list's length whenever SetFriends ran.
func foldTargetCounts(store *Store, pt *persistTarget, n int) error {
	if pt.ID < 1 || int(pt.ID) > n {
		return fmt.Errorf("%w: target %d out of range", ErrBadSnapshot, pt.ID)
	}
	id := UserID(pt.ID)
	rec := &store.shardOf(id).recs[store.slotFor(id)]
	if pt.Ever {
		rec.followers = int32(pt.EdgeN)
	}
	if pt.FriendsSet || pt.Friends != nil {
		rec.friends = int32(len(pt.Friends))
	}
	return nil
}

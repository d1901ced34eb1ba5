package twitter

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"fakeproject/internal/simclock"
)

// rewriteWithout is the full rewrite a removal must publish: every live edge
// decoded oldest-first, the oldest edge of each follower in followers left
// out, the survivors sealed afresh.
func rewriteWithout(v *edgeView, followers []UserID) (*edgeView, int) {
	drop := make(map[UserID]bool, len(followers))
	for _, f := range followers {
		drop[f] = true
	}
	var sealer edgeSealer
	removed := 0
	v.forEach(func(e segEdge) bool {
		if drop[UserID(e.follower)] {
			delete(drop, UserID(e.follower))
			removed++
		} else {
			sealer.add(e)
		}
		return true
	})
	return sealer.finish(true), removed
}

// diffViews names the first difference between two views, block for block:
// bytes, seq bounds and newest time, then the tail and the totals.
func diffViews(got, want *edgeView) string {
	if len(got.blocks) != len(want.blocks) {
		return fmt.Sprintf("%d blocks, want %d", len(got.blocks), len(want.blocks))
	}
	for i := range want.blocks {
		g, w := got.blocks[i], want.blocks[i]
		if !bytes.Equal(g.data, w.data) || g.firstSeq != w.firstSeq || g.lastSeq != w.lastSeq || g.lastAt != w.lastAt {
			return fmt.Sprintf("block %d is {seqs %d-%d at %d, %d bytes}, want {seqs %d-%d at %d, %d bytes}",
				i, g.firstSeq, g.lastSeq, g.lastAt, len(g.data), w.firstSeq, w.lastSeq, w.lastAt, len(w.data))
		}
	}
	if !slices.Equal(got.tail, want.tail) {
		return fmt.Sprintf("tail %v, want %v", got.tail, want.tail)
	}
	if got.total != want.total || got.ever != want.ever {
		return fmt.Sprintf("total %d ever %v, want %d %v", got.total, got.ever, want.total, want.ever)
	}
	return ""
}

// Removal drop sets FuzzRemoveFollowers builds, by mode.
const (
	dropScattered = iota // followers of random live edges
	dropRun              // the followers of a run of consecutive edges
	dropBoundary         // a run across a block boundary
	dropAbsent           // followers with no edge
	dropMixed            // a run, a scattered and an absent follower, each named twice
	dropModes
)

// FuzzRemoveFollowers is the in-package oracle of the removal path: over
// lists of 0 to 3×512+199 edges, some followers holding several edges, and
// drop sets of every mode, edgeView.without publishes exactly the view a
// full rewrite of the survivors would (rewriteWithout), removes as many
// edges, shares the blocks before the first removed edge without re-sealing
// them, and leaves the view it started from untouched.
func FuzzRemoveFollowers(f *testing.F) {
	sizes := []int{0, 1, 7, edgeBlockLen - 1, edgeBlockLen, edgeBlockLen + 1, 2*edgeBlockLen + 3, 3 * edgeBlockLen, 3*edgeBlockLen + 77}
	for i, n := range sizes {
		for mode := 0; mode < dropModes; mode++ {
			f.Add(uint16(n), int64(i*dropModes+mode), uint8(1+i%6), uint8(mode))
		}
	}
	f.Fuzz(func(t *testing.T, size uint16, seed int64, count, mode uint8) {
		rng := rand.New(rand.NewSource(seed))
		edges := randEdges(rng, int(size)%(3*edgeBlockLen+200))
		for i := range edges { // one edge in eight follows again
			if i > 0 && rng.Intn(8) == 0 {
				edges[i].follower = edges[rng.Intn(i)].follower
			}
		}
		var l edgeList
		for _, e := range edges {
			l.append(e)
		}
		v := l.view()
		stream := appendEdgeStream(nil, v)

		k := 1 + int(count)%64
		var followers []UserID
		live := func(i int) UserID { return UserID(edges[i].follower) }
		run := func(from int) {
			for i := from; i < min(from+k, len(edges)); i++ {
				followers = append(followers, live(i))
			}
		}
		if len(edges) > 0 {
			switch int(mode) % dropModes {
			case dropScattered:
				for range k {
					followers = append(followers, live(rng.Intn(len(edges))))
				}
			case dropRun:
				run(rng.Intn(len(edges)))
			case dropBoundary:
				run(max(0, (1+rng.Intn(3))*edgeBlockLen-k/2) % len(edges))
			case dropMixed:
				run(rng.Intn(len(edges)))
				followers = append(followers, live(rng.Intn(len(edges))), 1)
				followers = append(followers, followers...)
			}
		}
		followers = append(followers, 2, 3) // randEdges' followers start at 1,000,000

		want, wantN := rewriteWithout(v, followers)
		drop := make(map[UserID]struct{}, len(followers))
		for _, f := range followers {
			drop[f] = struct{}{}
		}
		got, gotN := v.without(drop)
		if gotN != wantN {
			t.Fatalf("removed %d edges, a rewrite removes %d", gotN, wantN)
		}
		if gotN == 0 {
			if got != nil {
				t.Fatal("a removal of nothing built a view")
			}
			return
		}
		if d := diffViews(got, want); d != "" {
			t.Fatalf("removal of %v: %s", followers, d)
		}
		// The blocks before the first removed edge are the old view's own,
		// bytes and all; from the block holding it on, each is sealed anew.
		first := slices.IndexFunc(edges, func(e segEdge) bool { return slices.Contains(followers, UserID(e.follower)) })
		for i := range min(len(got.blocks), len(v.blocks)) {
			if shared := &got.blocks[i].data[0] == &v.blocks[i].data[0]; shared != (i < first/edgeBlockLen) {
				t.Fatalf("block %d shared=%v, first removed edge %d", i, shared, first)
			}
		}
		if !bytes.Equal(appendEdgeStream(nil, v), stream) {
			t.Fatal("the removal changed the view it started from")
		}
	})
}

// TestHeldViewSurvivesSharedPrefixRemoval pins the aliasing hazard of
// prefix sharing. A removal publishes blocks it shares with the view before
// it, and appends seal into spare capacity of the current view's blocks
// slice; were the shared headers a sub-slice of the old view's, a seal
// would overwrite a block the old view still serves. A reader holds the
// view from before the removal, walks and streams it while the writer
// removes and then appends two more blocks' worth of edges, and must find
// exactly its original edges throughout.
func TestHeldViewSurvivesSharedPrefixRemoval(t *testing.T) {
	const n = 3*edgeBlockLen + 40
	for _, tc := range []struct {
		name     string
		from, to int // live positions of the removed edges
	}{
		// The suffix re-seals whole blocks during the removal itself.
		{"unfollow in a middle block", edgeBlockLen + 100, edgeBlockLen + 101},
		// The suffix is shorter than a block: the slot it frees is sealed
		// into by the appends after the removal.
		{"purge shortening the last block", 2*edgeBlockLen + 50, 2*edgeBlockLen + 300},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := NewStore(simclock.NewVirtualAtEpoch(), 1)
			target := store.MustCreateUser(UserParams{})
			at := simclock.Epoch
			follow := func() {
				at = at.Add(time.Second)
				if err := store.AddFollower(target, store.MustCreateUser(UserParams{}), at); err != nil {
					t.Fatal(err)
				}
			}
			for range n {
				follow()
			}
			edges := &store.targetOf(target).edges
			held := edges.view()
			if cap(held.blocks) == len(held.blocks) {
				t.Fatal("the blocks slice has no spare capacity; the hazard cannot arise")
			}
			want := liveEdges(held)
			stream := appendEdgeStream(nil, held)
			check := func() error {
				if got := liveEdges(held); !slices.Equal(got, want) {
					return fmt.Errorf("held view no longer decodes its original %d edges", len(want))
				}
				if !bytes.Equal(appendEdgeStream(nil, held), stream) {
					return fmt.Errorf("held view streams different bytes")
				}
				var w FollowerWalk
				w.start(held, SeqNewest, n)
				k := n - 1
				for run := w.Next(); run != nil; run = w.Next() {
					for _, id := range run {
						if id != UserID(want[k].follower) {
							return fmt.Errorf("held view walks %d at live index %d, want %d", id, k, want[k].follower)
						}
						k--
					}
				}
				if k != -1 {
					return fmt.Errorf("held view walk stopped at live index %d", k)
				}
				return nil
			}

			stop := make(chan struct{})
			var reader sync.WaitGroup
			var readErr error
			reader.Add(1)
			go func() {
				defer reader.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if readErr = check(); readErr != nil {
						return
					}
				}
			}()
			var gone []UserID
			for _, e := range want[tc.from:tc.to] {
				gone = append(gone, UserID(e.follower))
			}
			at = at.Add(time.Second)
			if removed, err := store.RemoveFollowers(target, gone, at); err != nil || removed != len(gone) {
				t.Fatalf("removed %d of %d: %v", removed, len(gone), err)
			}
			for range 2 * edgeBlockLen {
				follow()
			}
			close(stop)
			reader.Wait()
			if readErr != nil {
				t.Fatal(readErr)
			}
			if err := check(); err != nil {
				t.Fatal(err)
			}
			if live := edges.view(); live.total != n-len(gone)+2*edgeBlockLen {
				t.Fatalf("the list holds %d edges, want %d", live.total, n-len(gone)+2*edgeBlockLen)
			}
		})
	}
}

// liveEdges returns the live edges of v, oldest first.
func liveEdges(v *edgeView) []segEdge {
	out := make([]segEdge, 0, v.total)
	v.forEach(func(e segEdge) bool {
		out = append(out, e)
		return true
	})
	return out
}

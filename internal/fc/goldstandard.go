// Package fc implements the Fake Project fake-follower classifier of
// Section III: a machine-learning engine trained on a gold standard of
// a-priori-known accounts, deployed behind a statistically sound audit
// pipeline (whole-list crawl, uniform 9,604-account sample, 95% confidence
// with ±1% interval).
package fc

import (
	"fmt"
	"time"

	"fakeproject/internal/drand"
	"fakeproject/internal/features"
	"fakeproject/internal/ml"
	"fakeproject/internal/population"
	"fakeproject/internal/simclock"
	"fakeproject/internal/twitter"
)

// GoldStandard is a labelled reference set of Twitter accounts "where fake
// followers, inactive, and genuine accounts were a priori known"
// (Section III). It lives in its own store so that training never touches
// audit populations.
type GoldStandard struct {
	Store *twitter.Store
	// Humans and Fakes are the account IDs per label. Humans are *active*
	// genuine accounts: the FC pipeline removes dormant accounts with the
	// inactivity rule before classification, so the classifier's job is
	// active-fake vs active-genuine.
	Humans []twitter.UserID
	Fakes  []twitter.UserID
	// Now is the observation instant all features are extracted at.
	Now time.Time
}

// BuildGoldStandard synthesises a balanced gold standard with n accounts per
// class (the Fake Project's reference set is of this order: ~2000 per
// class).
func BuildGoldStandard(n int, seed uint64) (*GoldStandard, error) {
	clock := simclock.NewVirtualAtEpoch()
	store := twitter.NewStore(clock, seed)
	gen := population.NewGenerator(store, seed)

	// Two disjoint target accounts hold the two populations; the
	// generator's archetypes provide the class-conditional feature
	// distributions.
	humansTarget, err := gen.BuildTarget(population.TargetSpec{
		ScreenName: "goldstandard_humans",
		Followers:  n,
		Layout:     population.Layout{{Width: 0, Mix: population.Mix{Genuine: 1}}},
	})
	if err != nil {
		return nil, fmt.Errorf("building human half: %w", err)
	}
	fakesTarget, err := gen.BuildTarget(population.TargetSpec{
		ScreenName: "goldstandard_fakes",
		Followers:  n,
		Layout:     population.Layout{{Width: 0, Mix: population.Mix{Fake: 1}}},
	})
	if err != nil {
		return nil, fmt.Errorf("building fake half: %w", err)
	}
	humans, err := store.FollowersChronological(humansTarget)
	if err != nil {
		return nil, err
	}
	fakes, err := store.FollowersChronological(fakesTarget)
	if err != nil {
		return nil, err
	}
	return &GoldStandard{Store: store, Humans: humans, Fakes: fakes, Now: clock.Now()}, nil
}

// Context materialises the feature-extraction context of one account,
// optionally crawling its timeline and relationship lists (for class-B/C
// feature evaluation).
func (g *GoldStandard) Context(id twitter.UserID, withTimeline, withRelations bool) (*features.Context, error) {
	p, err := g.Store.Profile(id)
	if err != nil {
		return nil, err
	}
	ctx := &features.Context{Profile: p.View(), Now: g.Now}
	if withTimeline {
		tl, err := g.Store.Timeline(id, 200)
		if err != nil {
			return nil, err
		}
		ctx.Timeline = tl
		ctx.TimelineCrawled = true
	}
	if withRelations {
		// Gold-standard accounts are procedural, so their relationship
		// lists are the deterministic synthetic ones; materialising them
		// here mirrors what a class-C crawl would fetch.
		src := drand.New(uint64(id) * 2654435761).Fork("friends")
		n := g.Store.UserCount()
		count := p.FriendsCount
		if count > n-1 {
			count = n - 1
		}
		seen := make(map[twitter.UserID]struct{}, count)
		for len(ctx.Friends) < count {
			cand := twitter.UserID(src.Int63n(int64(n)) + 1)
			if cand == id {
				continue
			}
			if _, dup := seen[cand]; dup {
				continue
			}
			seen[cand] = struct{}{}
			ctx.Friends = append(ctx.Friends, cand)
		}
	}
	return ctx, nil
}

// Dataset extracts the labelled design matrix under a feature set.
// withTimeline/withRelations control which crawls are simulated; features
// above the paid cost fall back as documented in the features package.
func (g *GoldStandard) Dataset(set features.Set, withTimeline, withRelations bool) (ml.Dataset, error) {
	d := ml.Dataset{FeatureNames: set.Names()}
	appendRows := func(ids []twitter.UserID, label int) error {
		for _, id := range ids {
			ctx, err := g.Context(id, withTimeline, withRelations)
			if err != nil {
				return fmt.Errorf("account %d: %w", id, err)
			}
			d.X = append(d.X, set.Extract(ctx, nil))
			d.Y = append(d.Y, label)
		}
		return nil
	}
	if err := appendRows(g.Humans, ml.LabelHuman); err != nil {
		return ml.Dataset{}, err
	}
	if err := appendRows(g.Fakes, ml.LabelFake); err != nil {
		return ml.Dataset{}, err
	}
	return d, nil
}

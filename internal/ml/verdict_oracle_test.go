package ml_test

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"fakeproject/internal/auditd"
	"fakeproject/internal/core"
	"fakeproject/internal/drand"
	"fakeproject/internal/fc"
	"fakeproject/internal/features"
	"fakeproject/internal/ml"
	"fakeproject/internal/population"
	"fakeproject/internal/sampling"
	"fakeproject/internal/simclock"
	"fakeproject/internal/tools/socialbakers"
	"fakeproject/internal/tools/twitteraudit"
	"fakeproject/internal/twitter"
	"fakeproject/internal/twitterapi"
)

// The verdict oracle. An audit's per-account path — the sample, the
// inactivity rules, the feature row, the forest's vote and the profile
// scan — runs on exact fast paths; the functions below are those pieces as
// they were written before, on time.Time arithmetic, sorting, the mean
// vote and a lock per id, and TestVerdictOracle holds the fast paths to
// them. It lives beside the forest because one of its cases needs a forest
// with chosen leaves (StumpForest), which only this package's tests can
// build.

const refDormantAfter = 90 * 24 * time.Hour

func refIsDormant(v twitter.ProfileView, now time.Time) bool {
	if v.HasNeverTweeted() {
		return true
	}
	return now.Sub(v.LastTweet()) > refDormantAfter
}

func refAgeDays(ctx *features.Context) float64 {
	created := ctx.Profile.Created()
	if created.IsZero() {
		return 0
	}
	return ctx.Now.Sub(created).Hours() / 24
}

func refLastTweetAgeDays(ctx *features.Context) float64 {
	if ctx.Profile.LastTweetAt == 0 {
		return 3650
	}
	age := ctx.Now.Sub(ctx.Profile.LastTweet()).Hours() / 24
	if age < 0 {
		return 0
	}
	return age
}

func refTweetsPerDay(ctx *features.Context) float64 {
	age := refAgeDays(ctx)
	if age < 1 {
		age = 1
	}
	return float64(ctx.Profile.StatusesCount) / age
}

// refScore is twitteraudit.Score on time.Time arithmetic; 0.03 is the
// engine's mass-follower ratio.
func refScore(p twitter.ProfileView, now time.Time) float64 {
	tweets := math.Log10(float64(p.StatusesCount)+1) / 3
	if tweets > 1 {
		tweets = 1
	}
	var recency float64
	if p.LastTweetAt != 0 {
		ageDays := now.Sub(p.LastTweet()).Hours() / 24
		switch {
		case ageDays <= 30:
			recency = 2
		case ageDays <= 90:
			recency = 1.5
		case ageDays <= 180:
			recency = 0.75
		case ageDays <= 365:
			recency = 0.25
		}
	}
	ratio := p.FollowerFriendRatio()
	if ratio > 1 {
		ratio = 1
	}
	ratioPts := 2 * ratio
	if p.FriendsCount > 0 && p.FollowerFriendRatio() < 0.03 {
		ratioPts = 0
		if recency > 0.5 {
			recency = 0.5
		}
	}
	return tweets + recency + ratioPts
}

func refIsInactive(v twitter.ProfileView, now time.Time) bool {
	if v.StatusesCount < 3 {
		return true
	}
	return v.LastTweetAt != 0 && now.Sub(v.LastTweet()) > refDormantAfter
}

// refRow is the feature row of set with the time features on the
// reference arithmetic.
func refRow(set features.Set, ctx *features.Context) []float64 {
	ref := map[string]func(*features.Context) float64{
		"age_days":            refAgeDays,
		"last_tweet_age_days": refLastTweetAgeDays,
		"tweets_per_day":      refTweetsPerDay,
	}
	row := make([]float64, len(set.Features))
	for i, f := range set.Features {
		extract := f.Extract
		if r, ok := ref[f.Name]; ok {
			extract = r
		}
		row[i] = extract(ctx)
	}
	return row
}

// refSampleInts is drand's SampleInts with both branches sorting the draws.
func refSampleInts(s *drand.Source, n, k int) []int {
	if k == 0 {
		return nil
	}
	if k*4 < n {
		chosen := make(map[int]struct{}, k)
		out := make([]int, 0, k)
		for j := n - k; j < n; j++ {
			t := s.Intn(j + 1)
			if _, dup := chosen[t]; dup {
				t = j
			}
			chosen[t] = struct{}{}
			out = append(out, t)
		}
		sort.Ints(out)
		return out
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + s.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	out := idx[:k]
	sort.Ints(out)
	return out
}

// refScan views each id through its own locked lookup, as the scan did with
// a read lock per id.
func refScan(store *twitter.Store, ids []twitter.UserID) []twitter.ProfileView {
	var out []twitter.ProfileView
	for _, id := range ids {
		if p, err := store.Profile(id); err == nil {
			out = append(out, p.View())
		}
	}
	return out
}

// trapLeaf is a sum of three trees a few ulps under 0.5: with two trees of
// leaf 1 after it, 0.4999999999999997 + 2 rounds to under 2.5 in one step
// while adding the ones one at a time lands on 2.5 exactly.
const trapLeaf = 0.4999999999999997

// trapForest votes over the lookup row: an account with a bio sums
// trapLeaf + 0 + 0 + 1 + 1 = 2.5 of 5 trees, a mean of exactly 0.5 and so
// fake; one without sums 2 and is human.
func trapForest(t *testing.T) *ml.RandomForest {
	t.Helper()
	bio := -1
	for i, name := range features.LookupSet().Names() {
		if name == "has_bio" {
			bio = i
		}
	}
	if bio < 0 {
		t.Fatal("the lookup set has no has_bio feature")
	}
	leaf := float64(trapLeaf) // a variable: constant arithmetic would be exact
	if oneStep, byOnes := leaf+2, leaf+1+1; oneStep >= 2.5 || byOnes < 2.5 {
		t.Fatalf("trapLeaf %v is no rounding trap: %v in one step, %v by ones", trapLeaf, oneStep, byOnes)
	}
	return ml.StumpForest(
		ml.Stump{Feature: bio, Threshold: 0.5, Left: 0, Right: trapLeaf},
		ml.Stump{}, ml.Stump{},
		ml.Stump{Left: 1, Right: 1}, ml.Stump{Left: 1, Right: 1})
}

// handMade are views at the edges of the rules: a last tweet exactly 90
// days before the audit instant, the zero creation time, statuses with no
// last-tweet instant, and times far enough out that the fast path hands
// over to Time.Sub.
func handMade(at time.Time) []twitter.ProfileView {
	base := twitter.ProfileView{ID: 1, CreatedAt: at.AddDate(-2, 0, 0).Unix(), StatusesCount: 40, FollowersCount: 12, FriendsCount: 30, HasBio: true}
	var out []twitter.ProfileView
	add := func(edit func(v *twitter.ProfileView)) {
		v := base
		edit(&v)
		out = append(out, v)
	}
	for _, back := range []time.Duration{refDormantAfter - time.Second, refDormantAfter, refDormantAfter + time.Second} {
		add(func(v *twitter.ProfileView) { v.LastTweetAt = at.Add(-back).Unix() })
	}
	add(func(v *twitter.ProfileView) { v.CreatedAt = time.Time{}.Unix(); v.LastTweetAt = at.Unix() })
	add(func(v *twitter.ProfileView) { v.LastTweetAt = 0 })
	add(func(v *twitter.ProfileView) { v.LastTweetAt = 0; v.StatusesCount = 0 })
	add(func(v *twitter.ProfileView) { v.LastTweetAt = at.Add(time.Hour).Unix() }) // a last tweet after the audit instant
	add(func(v *twitter.ProfileView) { v.StatusesCount = 2; v.LastTweetAt = at.Unix() })
	for _, sec := range []int64{1, -1, math.MaxInt64, math.MinInt64 + 1, 1 << 62, -1 << 62, 1<<33 + 7} {
		add(func(v *twitter.ProfileView) { v.CreatedAt, v.LastTweetAt = sec, sec })
	}
	return out
}

// TestVerdictOracle holds every account of a 20,000-follower target, and
// hand-made views at the rules' edges, to the reference formulas at
// second-aligned, sub-second and ±1 ns observation instants: the same
// inactivity verdicts, feature rows to the bit, forest labels (the trained
// model's and a forest whose sums land on n/2 through a rounding trap),
// FC verdicts, Twitteraudit scores and Socialbakers inactivity. It also
// holds the audit sample and the profile scan to theirs, and the reports of
// all four engines — and of an FC engine over the trap forest — to the ones
// the reference code produced, pinned in testdata/verdict_reports.golden.
func TestVerdictOracle(t *testing.T) {
	clock := simclock.NewVirtualAtEpoch()
	store := twitter.NewStore(clock, 61)
	gen := population.NewGenerator(store, 61)
	target, err := gen.BuildTarget(population.TargetSpec{
		ScreenName: "oracle",
		Followers:  20000,
		Layout:     population.Layout{{Width: 0, Mix: population.Mix{Inactive: 0.25, Fake: 0.15, Genuine: 0.6}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	svc := twitterapi.NewService(store)
	model, set, err := fc.TrainDefault(62)
	if err != nil {
		t.Fatal(err)
	}
	trap := trapForest(t)
	engine := fc.NewEngine(twitterapi.NewDirectClient(svc, clock, twitterapi.ClientConfig{}), clock, model, set, fc.EngineConfig{Seed: 63})

	// The whole follower list, through the scan and through the reference.
	ids, err := twitterapi.AllFollowerIDs(twitterapi.NewDirectClient(svc, clock, twitterapi.ClientConfig{Tokens: 50}), target)
	if err != nil {
		t.Fatal(err)
	}
	salted := append([]twitter.UserID{0, twitter.UserID(store.UserCount() + 1)}, ids...)
	var views []twitter.ProfileView
	store.ScanProfiles(salted, func(v twitter.ProfileView) { views = append(views, v) })
	if want := refScan(store, salted); len(views) != len(want) || len(views) != len(ids) {
		t.Fatalf("scanned %d views, the reference %d, of %d followers", len(views), len(want), len(ids))
	} else {
		for i := range views {
			if views[i] != want[i] {
				t.Fatalf("view %d: scan %+v, reference %+v", i, views[i], want[i])
			}
		}
	}

	// The sample: the audit's 9,604 of 20,000 and a Floyd-sized one.
	for _, k := range []int{9604, 300} {
		got := sampling.Uniform{}.Sample(len(ids), k, drand.New(64))
		want := refSampleInts(drand.New(64), len(ids), k)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("sample of %d differs from the sorted reference", k)
		}
	}

	epoch := clock.Now()
	nows := []time.Time{epoch, epoch.Add(300 * time.Millisecond), epoch.Add(-time.Nanosecond), epoch.Add(time.Nanosecond), epoch.AddDate(1, 0, 0), {}}
	fakes, inactive, trapped := 0, 0, 0
	for _, now := range nows {
		accounts := append(handMade(now), handMade(epoch)...)
		if !now.IsZero() {
			accounts = append(accounts, views...)
		}
		for _, v := range accounts {
			ctx := &features.Context{Profile: v, Now: now}
			where := func() string { return fmt.Sprintf("account %d at %v (%+v)", v.ID, now, v) }
			dormant := core.IsDormant(v, now)
			if dormant != refIsDormant(v, now) {
				t.Fatalf("%s: IsDormant %v", where(), dormant)
			}
			if got, want := features.AgeDays(ctx), refAgeDays(ctx); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: AgeDays %v, reference %v", where(), got, want)
			}
			if got, want := features.LastTweetAgeDays(ctx), refLastTweetAgeDays(ctx); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: LastTweetAgeDays %v, reference %v", where(), got, want)
			}
			row, want := set.Extract(ctx, nil), refRow(set, ctx)
			for i := range row {
				if math.Float64bits(row[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: feature %s = %v, reference %v", where(), set.Features[i].Name, row[i], want[i])
				}
			}
			for _, forest := range []ml.Classifier{model, trap} {
				if got, want := forest.Predict(row), label(forest.PredictProba(row)); got != want {
					t.Fatalf("%s: %s Predict %d, PredictProba(row) >= 0.5 says %d", where(), forest.Name(), got, want)
				}
			}
			if v.HasBio && trap.PredictProba(row) == 0.5 {
				trapped++
			}
			verdict := "genuine"
			switch {
			case refIsDormant(v, now):
				verdict = "inactive"
				inactive++
			case model.PredictProba(want) >= 0.5:
				verdict = "fake"
				fakes++
			}
			if got := engine.ClassifyProfile(ctx); got != verdict {
				t.Fatalf("%s: FC verdict %s, reference %s", where(), got, verdict)
			}
			if got, want := twitteraudit.Score(v, now), refScore(v, now); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: Twitteraudit score %v, reference %v", where(), got, want)
			}
			if got := socialbakers.IsInactive(v, now); got != refIsInactive(v, now) {
				t.Fatalf("%s: Socialbakers IsInactive %v", where(), got)
			}
		}
	}
	if fakes == 0 || inactive == 0 || trapped == 0 {
		t.Fatalf("%d fake, %d inactive and %d trapped verdicts: not the population this test is about", fakes, inactive, trapped)
	}

	// The reports, at a sub-second instant, against the pinned ones.
	clock.Advance(300 * time.Millisecond)
	newClient := func(tool string, worker int) twitterapi.Client {
		return twitterapi.NewDirectClient(svc, clock, twitterapi.ClientConfig{Tokens: 50, Seed: 65})
	}
	var got strings.Builder
	tools := auditd.StandardFactories(newClient, auditd.ToolSetConfig{Clock: clock, Seed: 66})
	for _, tool := range auditd.StandardToolOrder {
		e, err := tools[tool](0)
		if err != nil {
			t.Fatal(err)
		}
		report, err := e.Audit("oracle")
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%s %+v\n", tool, report)
	}
	trapEngine := fc.NewEngine(newClient(auditd.ToolFC, 0), clock, trap, features.LookupSet(), fc.EngineConfig{Seed: 67})
	report, err := trapEngine.Audit("oracle")
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&got, "trap-forest %+v\n", report)
	golden, err := os.ReadFile("testdata/verdict_reports.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal([]byte(got.String()), golden) {
		t.Fatalf("reports differ from testdata/verdict_reports.golden:\n got\n%s\nwant\n%s", got.String(), golden)
	}
}

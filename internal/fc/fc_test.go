package fc

import (
	"math"
	"testing"

	"fakeproject/internal/features"
	"fakeproject/internal/ml"
	"fakeproject/internal/population"
	"fakeproject/internal/simclock"
	"fakeproject/internal/twitter"
	"fakeproject/internal/twitterapi"
)

func smallGold(t *testing.T) *GoldStandard {
	t.Helper()
	gold, err := BuildGoldStandard(300, 42)
	if err != nil {
		t.Fatal(err)
	}
	return gold
}

func TestGoldStandardBalanced(t *testing.T) {
	gold := smallGold(t)
	if len(gold.Humans) != 300 || len(gold.Fakes) != 300 {
		t.Fatalf("gold standard sizes %d/%d", len(gold.Humans), len(gold.Fakes))
	}
	for _, id := range gold.Humans {
		c, err := gold.Store.TrueClass(id)
		if err != nil || c != twitter.ClassGenuine {
			t.Fatalf("human %d has class %v (%v)", id, c, err)
		}
	}
	for _, id := range gold.Fakes {
		c, err := gold.Store.TrueClass(id)
		if err != nil || c != twitter.ClassFake {
			t.Fatalf("fake %d has class %v (%v)", id, c, err)
		}
	}
}

func TestGoldStandardDataset(t *testing.T) {
	gold := smallGold(t)
	set := features.LookupSet()
	d, err := gold.Dataset(set, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 600 || d.Positives() != 300 {
		t.Fatalf("dataset %d rows, %d positives", d.Len(), d.Positives())
	}
}

func TestGoldStandardContextWithCrawls(t *testing.T) {
	gold := smallGold(t)
	ctx, err := gold.Context(gold.Fakes[0], true, true)
	if err != nil {
		t.Fatal(err)
	}
	if !ctx.TimelineCrawled {
		t.Fatal("timeline not crawled")
	}
	if len(ctx.Friends) == 0 {
		t.Fatal("friends not materialised for class-C features")
	}
}

func TestTrainDefaultSeparates(t *testing.T) {
	model, set, err := TrainDefault(7)
	if err != nil {
		t.Fatal(err)
	}
	// The trained model must reach high accuracy on a fresh gold standard
	// drawn from a different seed.
	fresh, err := BuildGoldStandard(300, 999)
	if err != nil {
		t.Fatal(err)
	}
	d, err := fresh.Dataset(set, false, false)
	if err != nil {
		t.Fatal(err)
	}
	m := ml.Evaluate(model, d)
	if acc := m.Accuracy(); acc < 0.95 {
		t.Fatalf("hold-out accuracy = %.3f, want >= 0.95", acc)
	}
	if mcc := m.MCC(); mcc < 0.9 {
		t.Fatalf("hold-out MCC = %.3f, want >= 0.9", mcc)
	}
}

// engineFixture builds a small audited population plus an FC engine.
func engineFixture(t *testing.T, followers int, layout population.Layout) (*Engine, *simclock.Virtual) {
	t.Helper()
	clock := simclock.NewVirtualAtEpoch()
	store := twitter.NewStore(clock, 11)
	gen := population.NewGenerator(store, 11)
	if _, err := gen.BuildTarget(population.TargetSpec{
		ScreenName: "subject",
		Followers:  followers,
		Layout:     layout,
	}); err != nil {
		t.Fatal(err)
	}
	model, set, err := TrainDefault(12)
	if err != nil {
		t.Fatal(err)
	}
	client := twitterapi.NewDirectClient(twitterapi.NewService(store), clock,
		twitterapi.ClientConfig{Tokens: 8})
	return NewEngine(client, clock, model, set, EngineConfig{Seed: 13}), clock
}

func TestSampleSizeForMatchesPaper(t *testing.T) {
	e, _ := engineFixture(t, 10, nil)
	if n := e.SampleSizeFor(41000000); n != 9604 {
		t.Fatalf("sample for Obama = %d, want the constant 9604", n)
	}
	if n := e.SampleSizeFor(70900); n != 9604 {
		t.Fatalf("sample for 70900 = %d, want 9604", n)
	}
	if n := e.SampleSizeFor(929); n != 929 {
		t.Fatalf("sample for 929 = %d, want the whole base", n)
	}
}

func TestAuditRecoversGroundTruth(t *testing.T) {
	truth := population.Mix{Inactive: 0.55, Fake: 0.15, Genuine: 0.30}
	e, _ := engineFixture(t, 30000, population.Layout{{Width: 0, Mix: truth}})
	report, err := e.Audit("subject")
	if err != nil {
		t.Fatal(err)
	}
	if report.SampleSize != 9604 {
		t.Fatalf("sample = %d", report.SampleSize)
	}
	if math.Abs(report.InactivePct-55) > 3 {
		t.Fatalf("inactive = %.1f%%, want ≈55%%", report.InactivePct)
	}
	if math.Abs(report.FakePct-15) > 3 {
		t.Fatalf("fake = %.1f%%, want ≈15%%", report.FakePct)
	}
	if math.Abs(report.GenuinePct-30) > 3 {
		t.Fatalf("genuine = %.1f%%, want ≈30%%", report.GenuinePct)
	}
	if !report.HasInactiveClass || report.Window != 0 {
		t.Fatalf("report shape: %+v", report)
	}
}

func TestAuditImmuneToPositionBias(t *testing.T) {
	// The same overall truth laid out adversarially (all junk hidden in
	// the oldest band) must yield the same FC verdict — the whole point of
	// whole-list uniform sampling.
	truth := population.Mix{Inactive: 0.5, Fake: 0.1, Genuine: 0.4}
	adversarial := population.Layout{
		{Width: 5000, Mix: population.Mix{Genuine: 1}},
		{Width: 0, Mix: population.Mix{Inactive: 0.6, Fake: 0.12, Genuine: 0.28}},
	}
	_ = truth
	e, _ := engineFixture(t, 30000, adversarial)
	report, err := e.Audit("subject")
	if err != nil {
		t.Fatal(err)
	}
	wantInactive := (25000.0 * 0.6) / 30000 * 100
	if math.Abs(report.InactivePct-wantInactive) > 3 {
		t.Fatalf("inactive = %.1f%%, want ≈%.1f%% despite the adversarial layout",
			report.InactivePct, wantInactive)
	}
}

func TestAuditConfidenceIntervals(t *testing.T) {
	e, _ := engineFixture(t, 25000, population.Layout{
		{Width: 0, Mix: population.Mix{Inactive: 0.4, Fake: 0.2, Genuine: 0.4}},
	})
	report, err := e.Audit("subject")
	if err != nil {
		t.Fatal(err)
	}
	if report.CILevel != 0.95 {
		t.Fatalf("CI level = %v", report.CILevel)
	}
	for name, iv := range map[string]struct {
		lo, hi float64
		pct    float64
	}{
		"inactive": {report.InactiveCI.Lo, report.InactiveCI.Hi, report.InactivePct},
		"fake":     {report.FakeCI.Lo, report.FakeCI.Hi, report.FakePct},
		"genuine":  {report.GenuineCI.Lo, report.GenuineCI.Hi, report.GenuinePct},
	} {
		if iv.lo > iv.pct/100 || iv.hi < iv.pct/100 {
			t.Fatalf("%s CI [%v,%v] excludes the point estimate %v", name, iv.lo, iv.hi, iv.pct/100)
		}
		if width := iv.hi - iv.lo; width > 0.025 {
			t.Fatalf("%s CI width %v, want ≈±1%%", name, width)
		}
	}
}

func TestAuditUnknownTarget(t *testing.T) {
	e, _ := engineFixture(t, 10, nil)
	if _, err := e.Audit("nobody"); err == nil {
		t.Fatal("unknown target should fail")
	}
}

func TestClassifyProfile(t *testing.T) {
	e, clock := engineFixture(t, 10, nil)
	now := clock.Now()
	dormant := &features.Context{Profile: twitter.Profile{}.View(), Now: now}
	if got := e.ClassifyProfile(dormant); got != "inactive" {
		t.Fatalf("never-tweeted = %q", got)
	}
	bot := &features.Context{Profile: twitter.Profile{
		User:           twitter.User{CreatedAt: now.AddDate(0, -6, 0), DefaultProfileImage: true},
		FollowersCount: 5, FriendsCount: 2500, StatusesCount: 80,
		LastTweetAt: now.AddDate(0, 0, -1),
		Behavior:    twitter.Behavior{SpamRatio: 0.6, LinkRatio: 0.9, DuplicateRatio: 0.5, RetweetRatio: 0.5},
	}.View(), Now: now}
	if got := e.ClassifyProfile(bot); got != "fake" {
		t.Fatalf("spam bot = %q", got)
	}
}

func TestEvaluateRuleSetsUnderperform(t *testing.T) {
	// Section III: rule sets "do not succeed in detecting the fakes",
	// while spam-detection feature sets do better.
	gold := smallGold(t)
	ruleResults, err := EvaluateRuleSets(gold)
	if err != nil {
		t.Fatal(err)
	}
	if len(ruleResults) != 3 {
		t.Fatalf("rule results = %d", len(ruleResults))
	}
	featResults, err := EvaluateFeatureSets(gold, 21)
	if err != nil {
		t.Fatal(err)
	}
	bestRule, bestFeat := 0.0, 0.0
	for _, r := range ruleResults {
		if mcc := r.Metrics.MCC(); mcc > bestRule {
			bestRule = mcc
		}
	}
	for _, r := range featResults {
		if r.Kind != "features" {
			continue
		}
		if mcc := r.Metrics.MCC(); mcc > bestFeat {
			bestFeat = mcc
		}
	}
	if bestFeat <= bestRule {
		t.Fatalf("feature sets (MCC %.3f) should beat rule sets (MCC %.3f)", bestFeat, bestRule)
	}
}

func TestEvaluateClassifiers(t *testing.T) {
	gold := smallGold(t)
	results, err := EvaluateClassifiers(gold, 22)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("classifier results = %d", len(results))
	}
	for _, r := range results {
		if r.Metrics.Accuracy() < 0.9 {
			t.Fatalf("%s accuracy = %.3f, want >= 0.9 on the gold standard",
				r.Method, r.Metrics.Accuracy())
		}
	}
}

func TestOptimizedClassifierCostBenefit(t *testing.T) {
	// The cost-optimized (lookup-only) classifier must be drastically
	// cheaper than the full-feature one while staying nearly as accurate —
	// the Fake Project's central engineering claim.
	gold := smallGold(t)
	results, err := EvaluateFeatureSets(gold, 23)
	if err != nil {
		t.Fatal(err)
	}
	var lookup, full *MethodResult
	for i := range results {
		switch results[i].Method {
		case "forest/lookup":
			lookup = &results[i]
		case "forest/full":
			full = &results[i]
		}
	}
	if lookup == nil || full == nil {
		t.Fatalf("missing methods in %v", results)
	}
	if lookup.CrawlCost >= full.CrawlCost {
		t.Fatalf("lookup cost %.2f should be below full cost %.2f", lookup.CrawlCost, full.CrawlCost)
	}
	if lookup.Metrics.Accuracy() < full.Metrics.Accuracy()-0.05 {
		t.Fatalf("optimized accuracy %.3f sacrifices too much vs full %.3f",
			lookup.Metrics.Accuracy(), full.Metrics.Accuracy())
	}
}

// TestAuditAllocatesPerAuditNotPerAccount: the per-account path — scan the
// view, apply the inactivity rule, extract the feature row, walk the forest
// — allocates nothing, so what an audit allocates does not grow with its
// sample (it used to materialise one profile and one feature row each).
func TestAuditAllocatesPerAuditNotPerAccount(t *testing.T) {
	mix := population.Layout{{Width: 0, Mix: population.Mix{Inactive: 0.3, Fake: 0.2, Genuine: 0.5}}}
	e, clock := engineFixture(t, 12000, mix)
	target, err := e.client.UserByScreenName("subject")
	if err != nil {
		t.Fatal(err)
	}
	ids, err := twitterapi.AllFollowerIDs(e.client, target.ID)
	if err != nil {
		t.Fatal(err)
	}
	ctx := features.Context{Now: clock.Now()}
	row := make([]float64, 0, len(e.set.Features))
	verdicts := map[string]int{}
	visit := func(v twitter.ProfileView) {
		ctx.Profile = v
		var verdict string
		verdict, row = e.classify(&ctx, row)
		verdicts[verdict]++
	}
	perScan := testing.AllocsPerRun(5, func() {
		if err := e.client.ScanProfiles(ids, visit); err != nil {
			t.Fatal(err)
		}
	})
	if perScan != 0 {
		t.Fatalf("scanning and classifying %d accounts allocates %.0f times, want 0", len(ids), perScan)
	}
	for _, verdict := range []string{verdictInactive, verdictFake, verdictGenuine} {
		if verdicts[verdict] == 0 {
			t.Fatalf("no account was judged %s: the loop did not exercise that branch (%v)", verdict, verdicts)
		}
	}
	// The whole audit: pages of ids, the sample, the report — a few dozen
	// allocations whatever the sample size.
	perAudit := testing.AllocsPerRun(3, func() {
		if _, err := e.Audit("subject"); err != nil {
			t.Fatal(err)
		}
	})
	if perAudit > 64 {
		t.Fatalf("an audit of a %d-account sample allocates %.0f times: that is per account, not per audit", e.SampleSizeFor(len(ids)), perAudit)
	}
	t.Logf("%.0f allocations per audit of %d accounts", perAudit, e.SampleSizeFor(len(ids)))
}

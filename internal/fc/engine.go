package fc

import (
	"fmt"
	"sync"
	"time"

	"fakeproject/internal/core"
	"fakeproject/internal/drand"
	"fakeproject/internal/features"
	"fakeproject/internal/ml"
	"fakeproject/internal/sampling"
	"fakeproject/internal/simclock"
	"fakeproject/internal/stats"
	"fakeproject/internal/twitter"
	"fakeproject/internal/twitterapi"
)

// EngineConfig tunes the FC audit pipeline.
type EngineConfig struct {
	// Level is the confidence level of the estimate (default 0.95).
	Level float64
	// Margin is the confidence interval half-width (default 0.01).
	// The defaults yield the paper's constant sample size of 9,604.
	Margin float64
	// Seed drives sampling.
	Seed uint64
	// NominalFollowers optionally maps screen names to the real-world
	// follower counts their scaled populations represent (report display).
	NominalFollowers map[string]int
	// Window, when positive, restricts sampling to the newest Window
	// followers — deliberately adopting the commercial tools' biased
	// scheme. The deployed engine uses 0 (whole list); the ablation study
	// uses this knob to show that the sampling scheme, not the
	// classifier, is what separates FC from the tools.
	Window int
}

func (c EngineConfig) withDefaults() EngineConfig {
	if c.Level == 0 {
		c.Level = 0.95
	}
	if c.Margin == 0 {
		c.Margin = 0.01
	}
	return c
}

// Engine is the Fake Project analytics: open methodology, whole-list
// sampling, published criteria. It implements core.Auditor.
type Engine struct {
	client twitterapi.Client
	clock  simclock.Clock
	model  ml.Classifier
	set    features.Set
	cfg    EngineConfig
	// root is the seed every audit's sampling stream is forked from, by
	// screen name: a verdict is a function of (seed, target, platform
	// state), not of which audits this engine instance ran before.
	root *drand.Source
}

var _ core.Auditor = (*Engine)(nil)

// NewEngine assembles the engine from a trained classifier. The classifier
// must have been trained on the same feature set (see Train / TrainDefault).
func NewEngine(client twitterapi.Client, clock simclock.Clock, model ml.Classifier, set features.Set, cfg EngineConfig) *Engine {
	cfg = cfg.withDefaults()
	return &Engine{
		client: client,
		clock:  clock,
		model:  model,
		set:    set,
		cfg:    cfg,
		root:   drand.New(cfg.Seed).Fork("fc-engine"),
	}
}

// trainedDefault memoises TrainDefault per seed: training is deterministic
// and the returned model is read-only at prediction time, so every
// simulation (and every auditd worker pool) built with the same seed can
// share one classifier instead of re-training a forest each time.
var trainedDefault struct {
	sync.Mutex
	bySeed map[uint64]trainResult
}

type trainResult struct {
	model ml.Classifier
	set   features.Set
}

// TrainDefault builds the deployed FC classifier: a random forest over the
// lookup-cost feature set, trained on a synthetic gold standard. It returns
// the model and the feature set to pass to NewEngine. Results are memoised
// per seed (training is deterministic and models are immutable once
// trained).
func TrainDefault(seed uint64) (ml.Classifier, features.Set, error) {
	trainedDefault.Lock()
	defer trainedDefault.Unlock()
	if cached, ok := trainedDefault.bySeed[seed]; ok {
		return cached.model, cached.set, nil
	}
	gold, err := BuildGoldStandard(1500, seed)
	if err != nil {
		return nil, features.Set{}, fmt.Errorf("building gold standard: %w", err)
	}
	set := features.LookupSet()
	data, err := gold.Dataset(set, false, false)
	if err != nil {
		return nil, features.Set{}, fmt.Errorf("extracting features: %w", err)
	}
	model, err := ml.TrainForest(data, ml.ForestConfig{Trees: 21, Seed: seed})
	if err != nil {
		return nil, features.Set{}, fmt.Errorf("training forest: %w", err)
	}
	if trainedDefault.bySeed == nil {
		trainedDefault.bySeed = make(map[uint64]trainResult)
	}
	trainedDefault.bySeed[seed] = trainResult{model: model, set: set}
	return model, set, nil
}

// Name implements core.Auditor.
func (e *Engine) Name() string { return "fakeproject-fc" }

// SampleSizeFor returns the engine's sample size for a population of n
// followers: the paper's constant 9,604 ("to be statistically sound, the
// sample size is always 9604"), capped at the population itself for small
// accounts (where the whole base is assessed outright).
func (e *Engine) SampleSizeFor(n int) int {
	size := stats.SampleSize(e.cfg.Level, e.cfg.Margin)
	if size > n {
		return n
	}
	return size
}

// Audit implements core.Auditor: fetch the complete follower list, sample
// uniformly, look the sample up, apply the inactivity rule then the
// classifier, and report percentages with confidence intervals.
func (e *Engine) Audit(screenName string) (core.Report, error) {
	sw := simclock.NewStopwatch(e.clock)
	callsBefore := e.client.Calls()

	target, err := e.client.UserByScreenName(screenName)
	if err != nil {
		return core.Report{}, fmt.Errorf("resolving %q: %w", screenName, err)
	}
	// Step 1: the complete list of followers (newest first, as the API
	// yields it; completeness is what makes the sample unbiased). In the
	// ablation configuration only the newest Window entries are fetched,
	// mimicking the surveyed tools.
	var ids []twitter.UserID
	var err2 error
	if e.cfg.Window > 0 {
		ids, err2 = twitterapi.FollowerIDsUpTo(e.client, target.ID, e.cfg.Window)
	} else {
		ids, err2 = twitterapi.AllFollowerIDs(e.client, target.ID)
	}
	if err2 != nil {
		return core.Report{}, fmt.Errorf("crawling followers of %q: %w", screenName, err2)
	}

	// Step 2: uniform sample over the whole list.
	n := e.SampleSizeFor(len(ids))
	idx := sampling.Uniform{}.Sample(len(ids), n, e.root.Fork(screenName))
	sample := sampling.Select(ids, idx)

	// Steps 3 and 4: scan the sampled accounts' profile attributes and
	// judge each as it arrives — inactivity rule first, classifier on the
	// active remainder — so the sample is never materialised. The
	// observation instant is latched at the first visit, when the lookups
	// are paid for; ctx and its feature row are this audit's only scratch.
	obs := simclock.Latch{Clock: e.clock}
	ctx := features.Context{}
	row := make([]float64, 0, len(e.set.Features))
	var counts core.VerdictCounts
	err = e.client.ScanProfiles(sample, func(v twitter.ProfileView) {
		ctx.Profile, ctx.Now = v, obs.Now()
		var verdict string
		verdict, row = e.classify(&ctx, row)
		switch verdict {
		case verdictInactive:
			counts.Inactive++
		case verdictFake:
			counts.Fake++
		default:
			counts.Genuine++
		}
	})
	if err != nil {
		return core.Report{}, fmt.Errorf("looking up sample of %q: %w", screenName, err)
	}
	now := obs.Now()

	report := core.Report{
		Tool:             e.Name(),
		Target:           target,
		NominalFollowers: e.nominal(screenName, target.FollowersCount),
		SampleSize:       counts.Total(),
		Window:           0, // whole list
		HasInactiveClass: true,
		Elapsed:          sw.Elapsed(),
		APICalls:         e.client.Calls() - callsBefore,
		AssessedAt:       now,
		CILevel:          e.cfg.Level,
	}
	report.InactivePct, report.FakePct, report.GenuinePct = counts.Percentages()
	if total := counts.Total(); total > 0 {
		popSize := len(ids)
		ci := func(positives int) stats.Interval {
			p, err := stats.EstimateProportion(positives, total)
			if err != nil {
				return stats.Interval{}
			}
			return p.ConfidenceIntervalFinite(e.cfg.Level, popSize)
		}
		report.InactiveCI = ci(counts.Inactive)
		report.FakeCI = ci(counts.Fake)
		report.GenuineCI = ci(counts.Genuine)
	}
	return report, nil
}

func (e *Engine) nominal(screenName string, actual int) int {
	if n, ok := e.cfg.NominalFollowers[screenName]; ok && n > 0 {
		return n
	}
	return actual
}

// The engine's per-account verdicts.
const (
	verdictInactive = "inactive"
	verdictFake     = "fake"
	verdictGenuine  = "genuine"
)

// ClassifyProfile exposes the engine's per-account verdict (inactivity rule
// then classifier), used by evaluation code and examples.
func (e *Engine) ClassifyProfile(ctx *features.Context) string {
	verdict, _ := e.classify(ctx, nil)
	return verdict
}

// classify is the per-account verdict over a caller-owned feature row,
// returned (possibly grown) for the next account.
func (e *Engine) classify(ctx *features.Context, row []float64) (string, []float64) {
	if core.IsDormant(ctx.Profile, ctx.Now) {
		return verdictInactive, row
	}
	row = e.set.Extract(ctx, row)
	if e.model.Predict(row) == ml.LabelFake {
		return verdictFake, row
	}
	return verdictGenuine, row
}

// Elapsed since an arbitrary instant on the engine's clock — convenience
// for harnesses measuring multi-audit batches.
func (e *Engine) Since(t time.Time) time.Duration { return e.clock.Now().Sub(t) }

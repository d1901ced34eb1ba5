package auditd

import (
	"fmt"
	"sync"

	"fakeproject/internal/core"
	"fakeproject/internal/fc"
	"fakeproject/internal/features"
	"fakeproject/internal/ml"
	"fakeproject/internal/simclock"
	"fakeproject/internal/tools/socialbakers"
	"fakeproject/internal/tools/statuspeople"
	"fakeproject/internal/tools/twitteraudit"
	"fakeproject/internal/twitterapi"
)

// Canonical tool keys, matching each engine's Name().
const (
	ToolFC = "fakeproject-fc"
	ToolTA = "twitteraudit"
	ToolSP = "statuspeople"
	ToolSB = "socialbakers"
)

// StandardToolOrder is the column order the paper uses.
var StandardToolOrder = []string{ToolFC, ToolTA, ToolSP, ToolSB}

// ClientFunc supplies the API client for one tool on one worker. Each
// (tool, worker) pair should get its own client so rate-limit token budgets
// are per worker, as real deployments spread crawls over token pools.
type ClientFunc func(tool string, worker int) twitterapi.Client

// ToolSetConfig configures StandardFactories.
type ToolSetConfig struct {
	// Clock drives the engines' latency accounting.
	Clock simclock.Clock
	// Seed derives each tool's sampling seed — the same on every worker:
	// an engine forks its stream per audit from (seed, tool, target), so
	// which worker runs a job never shows in its verdict.
	Seed uint64
	// NominalFollowers optionally maps screen names to real-world follower
	// counts for scaled populations (FC report display).
	NominalFollowers map[string]int
}

// StandardFactories builds per-worker factories for the four analytics
// engines of the paper over the given client source. The FC classifier is
// trained once, on first use, and shared by every worker (prediction is
// read-only).
func StandardFactories(newClient ClientFunc, cfg ToolSetConfig) map[string]Factory {
	clock := cfg.Clock
	if clock == nil {
		clock = simclock.Real{}
	}

	var (
		trainOnce sync.Once
		model     ml.Classifier
		set       features.Set
		trainErr  error
	)
	trainedModel := func() (ml.Classifier, features.Set, error) {
		trainOnce.Do(func() {
			model, set, trainErr = fc.TrainDefault(cfg.Seed + 1)
		})
		return model, set, trainErr
	}

	return map[string]Factory{
		ToolFC: func(worker int) (core.Auditor, error) {
			m, s, err := trainedModel()
			if err != nil {
				return nil, fmt.Errorf("training FC classifier: %w", err)
			}
			return fc.NewEngine(newClient(ToolFC, worker), clock, m, s, fc.EngineConfig{
				Seed:             cfg.Seed + 2,
				NominalFollowers: cfg.NominalFollowers,
			}), nil
		},
		ToolTA: func(worker int) (core.Auditor, error) {
			return twitteraudit.New(newClient(ToolTA, worker), clock, cfg.Seed+3), nil
		},
		ToolSP: func(worker int) (core.Auditor, error) {
			spCfg := statuspeople.Current()
			spCfg.Seed = cfg.Seed + 4
			return statuspeople.New(newClient(ToolSP, worker), clock, spCfg), nil
		},
		ToolSB: func(worker int) (core.Auditor, error) {
			return socialbakers.New(newClient(ToolSB, worker), clock), nil
		},
	}
}

package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"fakeproject/internal/auditd"
	"fakeproject/internal/metrics"
	"fakeproject/internal/platform"
	"fakeproject/internal/population"
	"fakeproject/internal/simclock"
	"fakeproject/internal/twitter"
	"fakeproject/internal/twitterapi"
)

// Config shapes a local harness platform.
type Config struct {
	// Seed drives the synthetic population and every sampling stream.
	Seed uint64
	// Targets is how many audit targets to build (default 8). Target
	// sizes follow a 1/k harmonic series of Followers, so the population
	// is heavy-tailed like the paper's testbed.
	Targets int
	// Followers is the materialised follower count of the largest target
	// (default 20,000).
	Followers int
	// Statuses is the timeline depth per target (default 400).
	Statuses int
	// AuditWorkers sizes the auditd pool (default 4); AuditQueue bounds
	// its pending queue (default 256 — exceeding it is backpressure, a
	// 429 the harness counts as throttled, not as an error).
	AuditWorkers, AuditQueue int
	// AuditTools selects the analytics engines audit jobs run (default:
	// the three commercial engines; add auditd.ToolFC to pay classifier
	// training once at startup).
	AuditTools []string
	// TableILimits applies the paper's Table I budgets on the API server.
	// Default off: the harness measures the serving hot path, and an
	// open-loop generator against 1-per-minute budgets measures only the
	// limiter. With limits on, 429s are expected and counted.
	TableILimits bool
	// Metrics, when non-nil, builds the platform observed: both HTTP planes
	// get the shared per-endpoint instrumentation and the store/audit
	// internals are exported into this registry.
	Metrics *metrics.Registry
	// WALDir, when set, backs the in-process store with a write-ahead log in
	// that directory, so every churn mutation pays the real durability cost.
	// The directory must be fresh: the harness builds its own population and
	// refuses to run on top of recovered state.
	WALDir string
	// WALFsync is the log's fsync policy ("always", "interval", "off";
	// default interval). Only meaningful with WALDir.
	WALFsync string
	// WALCompactEvery compacts the log once that many records accumulate
	// past the newest snapshot (0 = no automatic compaction).
	WALCompactEvery uint64
}

func (c Config) withDefaults() Config {
	if c.Targets <= 0 {
		c.Targets = 8
	}
	if c.Followers <= 0 {
		c.Followers = 20000
	}
	if c.Statuses <= 0 {
		c.Statuses = 400
	}
	if c.AuditWorkers <= 0 {
		c.AuditWorkers = 4
	}
	if c.AuditQueue <= 0 {
		c.AuditQueue = 256
	}
	if len(c.AuditTools) == 0 {
		c.AuditTools = []string{auditd.ToolTA, auditd.ToolSP, auditd.ToolSB}
	}
	return c
}

// newLoadClient builds the keep-alive HTTP client a harness issues load
// on: the idle pool must comfortably exceed the in-flight cap or the
// generator measures TCP handshakes instead of the server.
func newLoadClient() *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        512,
			MaxIdleConnsPerHost: 512,
			IdleConnTimeout:     90 * time.Second,
		},
	}
}

// Target is one audit target the mixes aim at.
type Target struct {
	ID        twitter.UserID
	Name      string
	Followers int
}

// Harness holds an assembled HTTP plane: the simulated Twitter API and the
// audit service listening on TCP loopback, plus the platform handles the
// churn-driving mixes mutate. A remote harness (NewRemote) has no platform
// handles and supports the read-only mixes.
type Harness struct {
	// APIBase is the twitterd-equivalent base URL ("http://127.0.0.1:PORT").
	APIBase string
	// AuditBase is the auditd base URL; empty when the harness fronts a
	// remote platform without an audit service.
	AuditBase string
	// Targets are the built (or resolved) audit targets, largest first.
	Targets []Target

	// HTTP is the shared keep-alive client every mix issues requests on.
	HTTP *http.Client

	seed  uint64
	store *twitter.Store // nil for remote harnesses
	gen   *population.Generator
	churn *population.Driver // purge machinery for the hottest target

	svc   *auditd.Service
	procs []*platform.Process // the API and audit listeners, in start order
	tools []string
}

// NewLocal builds the full in-process platform: population, API server and
// audit service, each listening on its own loopback TCP port, so the load
// path exercises the real wire stack end to end.
func NewLocal(cfg Config) (*Harness, error) {
	cfg = cfg.withDefaults()
	clock := simclock.Real{}
	h := &Harness{seed: cfg.Seed, tools: cfg.AuditTools, HTTP: newLoadClient()}
	local := func(spec platform.Spec) (*platform.Process, error) {
		spec.Addr, spec.Registry = "127.0.0.1:0", cfg.Metrics
		p, err := platform.New(spec)
		if err == nil {
			h.procs = append(h.procs, p)
		}
		return p, err
	}
	api, err := local(platform.Spec{
		Seed:         cfg.Seed,
		WALDir:       cfg.WALDir,
		Fsync:        cfg.WALFsync,
		CompactEvery: cfg.WALCompactEvery,
		NoLimits:     !cfg.TableILimits,
	})
	if err != nil {
		return nil, err
	}
	store, err := api.OpenStore(clock)
	if err != nil {
		return nil, err
	}
	if n := store.UserCount(); n > 0 {
		h.Close()
		return nil, fmt.Errorf("loadgen: WAL dir %s already holds %d accounts; the harness builds its own population and needs a fresh directory", cfg.WALDir, n)
	}
	h.store = store
	h.gen = population.NewGenerator(store, cfg.Seed)

	// A heavy-tailed target family: target k carries Followers/(k+1)
	// followers, with a healthy share of fakes so purge sweeps have
	// victims.
	layout := population.Layout{{Width: 0, Mix: population.FromPercentages(25, 15, 60)}}
	for i := 0; i < cfg.Targets; i++ {
		n := cfg.Followers / (i + 1)
		if n < 500 {
			n = 500
		}
		name := fmt.Sprintf("load_t%d", i)
		id, err := h.gen.BuildTarget(population.TargetSpec{
			ScreenName: name,
			Followers:  n,
			Layout:     layout,
			Statuses:   cfg.Statuses,
			FollowSpan: 2 * 365 * 24 * time.Hour,
		})
		if err != nil {
			h.Close()
			return nil, fmt.Errorf("building target %s: %w", name, err)
		}
		h.Targets = append(h.Targets, Target{ID: id, Name: name, Followers: n})
	}
	h.churn = population.NewDriver(h.gen, h.Targets[0].ID, population.ChurnScript{})

	// The API plane.
	apiSvc := api.ServeAPI(store, clock)
	if h.APIBase, err = start(api); err != nil {
		h.Close()
		return nil, err
	}

	// The audit plane: engines crawl the store through in-process clients
	// with a wide token pool (the measured surface is auditd's HTTP plane:
	// queueing, scheduling and engine compute, not Table I sleeps).
	newClient := func(tool string, worker int) twitterapi.Client {
		return twitterapi.NewDirectClient(apiSvc, clock, twitterapi.ClientConfig{
			Tokens: 1000,
			Seed:   cfg.Seed + uint64(worker)*31,
		})
	}
	factories := auditd.StandardFactories(newClient, auditd.ToolSetConfig{Clock: clock, Seed: cfg.Seed})
	tools := make(map[string]auditd.Factory, len(cfg.AuditTools))
	for _, tool := range cfg.AuditTools {
		f, ok := factories[tool]
		if !ok {
			h.Close()
			return nil, fmt.Errorf("unknown audit tool %q", tool)
		}
		tools[tool] = f
	}
	svc, err := auditd.New(auditd.Config{
		Workers:   cfg.AuditWorkers,
		QueueCap:  cfg.AuditQueue,
		CacheTTL:  time.Minute,
		Clock:     clock,
		Tools:     tools,
		ToolOrder: cfg.AuditTools,
	})
	if err != nil {
		h.Close()
		return nil, fmt.Errorf("building audit service: %w", err)
	}
	h.svc = svc
	audit, err := local(platform.Spec{})
	if err != nil {
		h.Close()
		return nil, err
	}
	audit.OnStop(svc.Shutdown)
	audit.Mux.Handle("/", auditd.NewHandlerObserved(svc, cfg.Metrics))
	if h.AuditBase, err = start(audit); err != nil {
		h.Close()
		return nil, err
	}
	return h, nil
}

// NewRemote fronts externally running daemons: api is a twitterd base URL
// (required), audit an auditd base URL (optional — without it the
// audit-heavy mix is unavailable, and without an in-process store the
// churn-driving mixes are too). Target accounts are resolved over the API.
func NewRemote(api, audit string, accounts []string) (*Harness, error) {
	h := &Harness{
		APIBase:   strings.TrimSuffix(api, "/"),
		AuditBase: strings.TrimSuffix(audit, "/"),
		tools:     nil, // default tool set of the remote auditd
		HTTP:      newLoadClient(),
	}
	if len(accounts) == 0 {
		return nil, fmt.Errorf("remote harness needs at least one target account")
	}
	for _, name := range accounts {
		var u struct {
			ID        int64 `json:"id"`
			Followers int   `json:"followers_count"`
		}
		params := url.Values{"screen_name": {name}}
		body, err := h.get(context.Background(), h.APIBase+"/1.1/users/show.json?"+params.Encode(), "resolve")
		if err != nil {
			return nil, fmt.Errorf("resolving %s: %w", name, err)
		}
		if err := json.Unmarshal(body, &u); err != nil {
			return nil, fmt.Errorf("resolving %s: %w", name, err)
		}
		h.Targets = append(h.Targets, Target{ID: twitter.UserID(u.ID), Name: name, Followers: u.Followers})
	}
	return h, nil
}

// start binds p's listener and returns its base URL.
func start(p *platform.Process) (string, error) {
	addr, err := p.Start()
	if err != nil {
		return "", fmt.Errorf("listening: %w", err)
	}
	return "http://" + addr, nil
}

// Close tears the harness down through each process's stop path, newest
// first: the audit listener and pool, then the API listener and — once
// nothing can mutate the store — the WAL, sealing its final segment.
func (h *Harness) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := len(h.procs) - 1; i >= 0; i-- {
		_ = h.procs[i].Stop(ctx)
	}
	h.procs = nil
	h.HTTP.CloseIdleConnections()
}

// get issues one GET with the harness token and classifies the outcome:
// body on 200, ErrThrottled on 429, a descriptive error otherwise.
func (h *Harness) get(ctx context.Context, rawURL, token string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rawURL, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+token)
	return h.do(req)
}

// post issues one POST of a JSON body, classified like get.
func (h *Harness) post(ctx context.Context, rawURL string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rawURL, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return h.do(req)
}

func (h *Harness) do(req *http.Request) ([]byte, error) {
	resp, err := h.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	closeErr := resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("reading body: %w", err)
	}
	if closeErr != nil {
		return nil, fmt.Errorf("closing body: %w", closeErr)
	}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		return nil, ErrThrottled
	case resp.StatusCode >= 400:
		snippet := string(body)
		if len(snippet) > 120 {
			snippet = snippet[:120]
		}
		return nil, fmt.Errorf("HTTP %d from %s: %s", resp.StatusCode, req.URL.Path, snippet)
	}
	return body, nil
}

// idsURL builds a followers/ids or friends/ids request URL.
func (h *Harness) idsURL(path string, id twitter.UserID, cursor int64) string {
	return h.APIBase + path + "?user_id=" + strconv.FormatInt(int64(id), 10) +
		"&cursor=" + strconv.FormatInt(cursor, 10)
}

// churnStep applies one step of background churn to the hottest target:
// alternating purchase bursts at the newest end of the list and purge
// sweeps over the ground-truth fakes — the storm the crawl mixes race.
// When col is non-nil, the step's writes are timed into it: the burst as one
// "write/follow-burst" sample plus individually timed "write/follow" and
// "write/tweet" probe ops, and purge sweeps as "write/purge".
func (h *Harness) churnStep(col *Collector, step, burst int, purgeFraction float64) (added, removed int, err error) {
	if h.store == nil {
		return 0, 0, fmt.Errorf("remote harness cannot churn the platform")
	}
	record := func(endpoint string, start time.Time, err error) {
		if col != nil {
			col.Record(endpoint, time.Since(start), err)
		}
	}
	hot := h.Targets[0].ID
	if step%2 == 0 {
		start := time.Now()
		err := h.gen.BuyFollowers(hot, burst)
		record("write/follow-burst", start, err)
		if err != nil {
			return 0, 0, err
		}
		added = burst
		for i := 0; i < 4; i++ {
			start := time.Now()
			err := h.gen.BuyFollowers(hot, 1)
			record("write/follow", start, err)
			if err != nil {
				return added, 0, err
			}
			added++
		}
		for i := 0; i < 2; i++ {
			start := time.Now()
			_, err := h.store.AppendTweet(hot, twitter.Tweet{
				CreatedAt: h.store.Now(),
				Text:      "churn probe",
				Source:    "loadgen",
			})
			record("write/tweet", start, err)
			if err != nil {
				return added, 0, err
			}
		}
		return added, 0, nil
	}
	start := time.Now()
	removed, err = h.churn.PurgeFakes(purgeFraction)
	record("write/purge", start, err)
	return 0, removed, err
}

// runChurn drives churnStep every interval until ctx is cancelled,
// reporting the applied totals.
func (h *Harness) runChurn(ctx context.Context, col *Collector, interval time.Duration, burst int, purgeFraction float64) (added, removed int, err error) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for step := 0; ; step++ {
		select {
		case <-ctx.Done():
			return added, removed, err
		case <-ticker.C:
			a, r, stepErr := h.churnStep(col, step, burst, purgeFraction)
			added += a
			removed += r
			if stepErr != nil && err == nil {
				err = stepErr
			}
		}
	}
}

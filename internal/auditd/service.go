package auditd

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fakeproject/internal/core"
	"fakeproject/internal/metrics"
	"fakeproject/internal/simclock"
)

// Factory builds one tool-engine instance for one worker. Every worker gets
// its own instance (and therefore its own API token state), so engines need
// not be safe for concurrent Audit calls.
type Factory func(worker int) (core.Auditor, error)

// Config configures a Service.
type Config struct {
	// Workers is the pool size (default 4).
	Workers int
	// QueueCap bounds the pending queue; submissions beyond it fail with
	// ErrQueueFull (backpressure). Default 256.
	QueueCap int
	// CacheTTL is the result cache expiry: 0 means entries never expire
	// (Twitteraudit-style), negative disables the cache entirely.
	CacheTTL time.Duration
	// Clock drives timestamps and cache expiry (default the real clock).
	Clock simclock.Clock
	// Tools maps tool name → per-worker engine factory. Required.
	Tools map[string]Factory
	// ToolOrder is the canonical order used when a job requests "all
	// tools" (default: sorted tool names).
	ToolOrder []string
}

const (
	// retainJobs bounds how many terminal jobs stay queryable; the oldest
	// are evicted first.
	retainJobs = 1024
	// stallAfter is how long the pool may go without making progress (a
	// job starting or finishing) while jobs are queued before Health
	// reports degraded.
	stallAfter = 30 * time.Second
)

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 256
	}
	if c.Clock == nil {
		c.Clock = simclock.Real{}
	}
	return c
}

// Stats is a point-in-time operational summary of the service.
type Stats struct {
	Workers     int    `json:"workers"`
	QueueDepth  int    `json:"queue_depth"`
	QueueCap    int    `json:"queue_cap"`
	Submitted   uint64 `json:"submitted"`
	Deduped     uint64 `json:"deduped"`
	Rejected    uint64 `json:"rejected"`
	Completed   uint64 `json:"completed"`
	Failed      uint64 `json:"failed"`
	Canceled    uint64 `json:"canceled"`
	InlineCache uint64 `json:"inline_cache_serves"`
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
}

// Service is a running audit service: a worker pool draining a priority
// queue of audit jobs, sharing one TTL'd result cache.
type Service struct {
	cfg   Config
	clock simclock.Clock
	queue *jobQueue
	cache *core.ResultCache // nil when caching is disabled

	known     map[string]bool
	toolOrder []string

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu     sync.Mutex
	jobs   map[JobID]*job
	order  []JobID
	seq    uint64
	runSeq uint64
	closed bool
	stats  Stats

	// progressNs is the clock instant (UnixNano) of the pool's last sign of
	// life — a job starting or finishing. Health compares it against
	// stallAfter when jobs are queued.
	progressNs atomic.Int64

	// flightMu guards flights, the per-(tool,target) singleflight map that
	// prevents two workers from running the same analysis concurrently.
	flightMu sync.Mutex
	flights  map[string]chan struct{}
}

// New starts a service with the given configuration; callers must Shutdown
// it when done.
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Tools) == 0 {
		return nil, fmt.Errorf("auditd: no tools configured")
	}
	known := make(map[string]bool, len(cfg.Tools))
	for name := range cfg.Tools {
		known[name] = true
	}
	order := cfg.ToolOrder
	if len(order) == 0 {
		for name := range cfg.Tools {
			order = append(order, name)
		}
	} else {
		for _, name := range order {
			if !known[name] {
				return nil, fmt.Errorf("auditd: tool order names unknown tool %q", name)
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:       cfg,
		clock:     cfg.Clock,
		queue:     newJobQueue(cfg.QueueCap),
		known:     known,
		toolOrder: append([]string(nil), order...),
		ctx:       ctx,
		cancel:    cancel,
		jobs:      make(map[JobID]*job),
		flights:   make(map[string]chan struct{}),
	}
	if cfg.CacheTTL >= 0 {
		s.cache = core.NewResultCache(cfg.Clock, cfg.CacheTTL)
	}
	s.stats.Workers = cfg.Workers
	s.stats.QueueCap = cfg.QueueCap
	s.progressNs.Store(cfg.Clock.Now().UnixNano())
	// Workers are numbered from 1 so a JobSnapshot's zero Worker always
	// means "not yet assigned".
	for w := 1; w <= cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker(w)
	}
	return s, nil
}

func cacheKey(tool, target string) string { return tool + "\x00" + target }

// Submit validates and enqueues a job, returning its snapshot immediately.
//
// Two fast paths mirror the field behaviour of the paper's subjects: a
// request equivalent to one already queued or running coalesces onto it
// (Deduped true), and a request answerable entirely from the result cache
// completes inline without ever touching the queue — the O(µs) repeat
// request of Table II.
func (s *Service) Submit(spec JobSpec) (JobSnapshot, error) {
	spec, err := spec.normalise(s.known, s.toolOrder)
	if err != nil {
		return JobSnapshot{}, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return JobSnapshot{}, ErrClosed
	}
	s.seq++
	j := &job{
		id:        JobID(fmt.Sprintf("j%08d", s.seq)),
		spec:      spec,
		state:     StateQueued,
		submitted: s.clock.Now(),
		done:      make(chan struct{}),
	}
	s.stats.Submitted++
	s.mu.Unlock()

	// Cache fast path: answer fully-cached requests inline.
	if results, ok := s.tryCacheOnly(spec); ok {
		now := s.clock.Now()
		s.mu.Lock()
		j.state = StateDone
		j.results = results
		j.started, j.finished = now, now
		s.stats.InlineCache++
		s.stats.Completed++
		s.recordLocked(j)
		s.mu.Unlock()
		close(j.done)
		return j.snapshot(), nil
	}

	// Push and record are one critical section (lock order s.mu → queue.mu):
	// the push publishes j to coalescing submitters and to the workers, so
	// the table must resolve its ID before either can observe it.
	s.mu.Lock()
	defer s.mu.Unlock()
	// A job's dedup entry is dropped in the critical section that turns it
	// terminal, so a winner observed here is queued or running.
	winner, enqueued, err := s.queue.push(j)
	if err != nil {
		if err == ErrQueueFull {
			s.stats.Rejected++
		}
		return JobSnapshot{}, err
	}
	if !enqueued {
		s.stats.Deduped++
		winner.deduped = true
		return winner.snapshot(), nil
	}
	s.recordLocked(j)
	return j.snapshot(), nil
}

// tryCacheOnly serves spec entirely from the cache, if possible.
func (s *Service) tryCacheOnly(spec JobSpec) (map[string]ToolResult, bool) {
	if s.cache == nil {
		return nil, false
	}
	results := make(map[string]ToolResult, len(spec.Tools))
	for _, tool := range spec.Tools {
		report, ok := s.cache.Get(cacheKey(tool, spec.Target))
		if !ok {
			return nil, false
		}
		report.Cached = true
		report.Elapsed = 0
		report.APICalls = 0
		results[tool] = ToolResult{Report: report, CacheHit: true}
	}
	return results, true
}

// recordLocked stores j in the job table and evicts the oldest terminal
// jobs beyond the retention bound. Callers hold s.mu.
func (s *Service) recordLocked(j *job) {
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	excess := len(s.order) - retainJobs
	// Jobs mostly finish in submission order, so the oldest terminal job is
	// usually the head: drop it without touching the rest of the table.
	for excess > 0 && s.jobs[s.order[0]].state.Terminal() {
		delete(s.jobs, s.order[0])
		s.order = s.order[1:]
		excess--
	}
	if excess <= 0 {
		return
	}
	// A live job holds the head: scan past it for the oldest terminal ones.
	kept := s.order[:0]
	for _, id := range s.order {
		old := s.jobs[id]
		if excess > 0 && old != nil && old.state.Terminal() {
			delete(s.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// Get returns the current snapshot of a job.
func (s *Service) Get(id JobID) (JobSnapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobSnapshot{}, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return j.snapshot(), nil
}

// Await blocks until the job reaches a terminal state or ctx expires.
func (s *Service) Await(ctx context.Context, id JobID) (JobSnapshot, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobSnapshot{}, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return JobSnapshot{}, ctx.Err()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.snapshot(), nil
}

// Cancel marks a queued job canceled; it is a no-op for running or terminal
// jobs (an in-flight analysis cannot be interrupted mid-crawl). The job's
// dedup entry is dropped immediately so a fresh equivalent submission runs
// instead of coalescing onto the canceled job.
func (s *Service) Cancel(id JobID) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	if j.state == StateQueued {
		j.canceled = true
		s.queue.release(j)
	}
	s.mu.Unlock()
	return nil
}

// List returns snapshots of every retained job, oldest first.
func (s *Service) List() []JobSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobSnapshot, 0, len(s.order))
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok {
			out = append(out, j.snapshot())
		}
	}
	return out
}

// Tools returns the configured tool names in canonical order.
func (s *Service) Tools() []string { return append([]string(nil), s.toolOrder...) }

// Stats returns current operational counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	st := s.stats
	s.mu.Unlock()
	st.QueueDepth = s.queue.depth()
	if s.cache != nil {
		st.CacheHits, st.CacheMisses = s.cache.Stats()
	}
	return st
}

// Health is the readiness assessment behind GET /healthz.
type Health struct {
	// Status is "ok" or "degraded".
	Status string `json:"status"`
	// Detail explains a degraded status.
	Detail     string   `json:"detail,omitempty"`
	QueueDepth int      `json:"queue_depth"`
	QueueCap   int      `json:"queue_cap"`
	Tools      []string `json:"tools"`
}

// Health assesses readiness: degraded when the job queue is at capacity
// (submissions are bouncing) or when jobs are queued but the worker pool
// has shown no sign of life for stallAfter.
func (s *Service) Health() Health {
	h := Health{
		Status:     "ok",
		QueueDepth: s.queue.depth(),
		QueueCap:   s.cfg.QueueCap,
		Tools:      s.Tools(),
	}
	switch idle := s.clock.Now().Sub(time.Unix(0, s.progressNs.Load())); {
	case h.QueueDepth >= h.QueueCap:
		h.Status = "degraded"
		h.Detail = fmt.Sprintf("job queue at capacity (%d/%d): submissions are being rejected",
			h.QueueDepth, h.QueueCap)
	case h.QueueDepth > 0 && idle > stallAfter:
		h.Status = "degraded"
		h.Detail = fmt.Sprintf("workers stalled: %d jobs queued, no progress for %s",
			h.QueueDepth, idle.Round(time.Second))
	}
	return h
}

// Observe exports the service's operational counters into reg, evaluated
// from Stats at scrape time so nothing is double-tracked.
func (s *Service) Observe(reg *metrics.Registry) {
	gauge := func(name, help string, pick func(Stats) float64) {
		//fp:allow metricnames names are literal at the wrapper call sites below
		reg.GaugeFunc(name, help, func() float64 { return pick(s.Stats()) })
	}
	counter := func(name, help string, pick func(Stats) float64, labels ...metrics.Label) {
		//fp:allow metricnames names are literal at the wrapper call sites below
		reg.CounterFunc(name, help, func() float64 { return pick(s.Stats()) }, labels...)
	}
	gauge("auditd_queue_depth", "Audit jobs waiting in the queue.",
		func(st Stats) float64 { return float64(st.QueueDepth) })
	gauge("auditd_queue_capacity", "Configured queue bound.",
		func(st Stats) float64 { return float64(st.QueueCap) })
	gauge("auditd_workers", "Configured worker pool size.",
		func(st Stats) float64 { return float64(st.Workers) })
	counter("auditd_jobs_total", "Jobs submitted, by outcome so far.",
		func(st Stats) float64 { return float64(st.Submitted) }, metrics.L("event", "submitted"))
	counter("auditd_jobs_total", "Jobs submitted, by outcome so far.",
		func(st Stats) float64 { return float64(st.Completed) }, metrics.L("event", "completed"))
	counter("auditd_jobs_total", "Jobs submitted, by outcome so far.",
		func(st Stats) float64 { return float64(st.Failed) }, metrics.L("event", "failed"))
	counter("auditd_jobs_total", "Jobs submitted, by outcome so far.",
		func(st Stats) float64 { return float64(st.Canceled) }, metrics.L("event", "canceled"))
	counter("auditd_jobs_total", "Jobs submitted, by outcome so far.",
		func(st Stats) float64 { return float64(st.Rejected) }, metrics.L("event", "rejected"))
	counter("auditd_jobs_total", "Jobs submitted, by outcome so far.",
		func(st Stats) float64 { return float64(st.Deduped) }, metrics.L("event", "deduped"))
	counter("auditd_cache_total", "Result-cache lookups, by outcome.",
		func(st Stats) float64 { return float64(st.CacheHits) }, metrics.L("outcome", "hit"))
	counter("auditd_cache_total", "Result-cache lookups, by outcome.",
		func(st Stats) float64 { return float64(st.CacheMisses) }, metrics.L("outcome", "miss"))
	counter("auditd_inline_cache_serves_total",
		"Submissions answered entirely from cache without queueing.",
		func(st Stats) float64 { return float64(st.InlineCache) })
}

// Cache exposes the shared result cache (nil when disabled).
func (s *Service) Cache() *core.ResultCache { return s.cache }

// Invalidate drops the cached results for target under the given tools
// (every configured tool when none are named), forcing the next audit to
// run fresh. Continuous monitors call this before each re-audit round so a
// cadence shorter than the cache TTL still observes the live platform.
func (s *Service) Invalidate(target string, tools ...string) {
	if s.cache == nil {
		return
	}
	if len(tools) == 0 {
		tools = s.toolOrder
	}
	for _, tool := range tools {
		s.cache.Forget(cacheKey(tool, target))
	}
}

// Shutdown stops intake and waits for the workers to drain the queue. If
// ctx expires first, in-flight work is cancelled and Shutdown returns
// ctx.Err() after the workers exit.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	alreadyClosed := s.closed
	s.closed = true
	s.mu.Unlock()
	if !alreadyClosed {
		s.queue.close()
	}
	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		s.cancel()
		return nil
	case <-ctx.Done():
		s.cancel()
		<-drained
		// Workers bailed out with jobs still queued: finalise them so
		// every Await unblocks rather than hanging on a job that will
		// never run.
		abandoned := s.queue.drain()
		now := s.clock.Now()
		s.mu.Lock()
		for _, j := range abandoned {
			if j.state.Terminal() {
				continue
			}
			j.state = StateCanceled
			j.errMsg = "service shut down before execution"
			j.finished = now
			s.stats.Canceled++
			close(j.done)
		}
		s.mu.Unlock()
		return ctx.Err()
	}
}

// worker is one pool goroutine: it owns lazily built per-tool engines and
// drains the queue until shutdown.
func (s *Service) worker(id int) {
	defer s.wg.Done()
	engines := make(map[string]core.Auditor, len(s.known))
	for {
		j, ok := s.queue.pop(s.ctx)
		if !ok {
			return
		}
		s.runJob(id, engines, j)
	}
}

// runJob executes one job on one worker.
func (s *Service) runJob(worker int, engines map[string]core.Auditor, j *job) {
	s.mu.Lock()
	if j.canceled {
		j.state = StateCanceled
		j.errMsg = "canceled before execution"
		j.finished = s.clock.Now()
		s.stats.Canceled++
		s.queue.release(j)
		s.mu.Unlock()
		close(j.done)
		return
	}
	j.state = StateRunning
	j.worker = worker
	j.started = s.clock.Now()
	s.runSeq++
	j.runSeq = s.runSeq
	s.mu.Unlock()
	s.progressNs.Store(j.started.UnixNano())

	results := make(map[string]ToolResult, len(j.spec.Tools))
	failed := false
	for _, tool := range j.spec.Tools {
		if s.ctx.Err() != nil {
			results[tool] = ToolResult{Err: "shutdown before analysis"}
			failed = true
			continue
		}
		res := s.auditOne(worker, engines, tool, j.spec.Target)
		if res.Err != "" {
			failed = true
		}
		results[tool] = res
	}

	s.mu.Lock()
	j.results = results
	j.finished = s.clock.Now()
	if failed {
		j.state = StateFailed
		j.errMsg = "one or more tools failed"
		s.stats.Failed++
	} else {
		j.state = StateDone
		s.stats.Completed++
	}
	// Terminal and no longer coalescable are one step under s.mu (lock
	// order s.mu → queue.mu, as in Submit): no submitter can be handed a
	// finished job as its in-flight winner.
	s.queue.release(j)
	s.mu.Unlock()
	s.progressNs.Store(j.finished.UnixNano())
	close(j.done)
}

// auditOne produces one tool's result for one target: cache hit, or a fresh
// analysis deduplicated across workers by a singleflight per (tool, target).
func (s *Service) auditOne(worker int, engines map[string]core.Auditor, tool, target string) ToolResult {
	key := cacheKey(tool, target)
	for {
		if s.cache != nil {
			if report, ok := s.cache.Get(key); ok {
				report.Cached = true
				report.Elapsed = 0
				report.APICalls = 0
				return ToolResult{Report: report, CacheHit: true}
			}
		}

		s.flightMu.Lock()
		if wait, inflight := s.flights[key]; inflight {
			s.flightMu.Unlock()
			select {
			case <-wait:
				if s.cache != nil {
					continue // leader finished; re-read the cache
				}
				// Without a cache there is nothing to share: fall through
				// to a fresh analysis.
			case <-s.ctx.Done():
				return ToolResult{Err: "shutdown while awaiting in-flight analysis"}
			}
		} else {
			done := make(chan struct{})
			s.flights[key] = done
			s.flightMu.Unlock()
			res := s.freshAudit(worker, engines, tool, target)
			s.flightMu.Lock()
			delete(s.flights, key)
			s.flightMu.Unlock()
			close(done)
			return res
		}

		res := s.freshAudit(worker, engines, tool, target)
		return res
	}
}

// freshAudit runs the worker's own engine instance and populates the cache.
func (s *Service) freshAudit(worker int, engines map[string]core.Auditor, tool, target string) ToolResult {
	engine, ok := engines[tool]
	if !ok {
		built, err := s.cfg.Tools[tool](worker)
		if err != nil {
			return ToolResult{Err: fmt.Sprintf("building %s engine: %v", tool, err)}
		}
		engines[tool] = built
		engine = built
	}
	report, err := engine.Audit(target)
	if err != nil {
		return ToolResult{Err: err.Error()}
	}
	if report.AssessedAt.IsZero() {
		report.AssessedAt = s.clock.Now()
	}
	if s.cache != nil {
		s.cache.Put(cacheKey(tool, target), report)
	}
	return ToolResult{Report: report}
}

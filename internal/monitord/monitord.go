// Package monitord is the continuous-monitoring subsystem of the
// reproduction: where auditd answers one-shot "how fake is this account?"
// requests, monitord keeps a watchlist of standing targets and re-audits
// them on a cadence over (virtual) time, building per-tool time series of
// verdicts and raising alerts when the series drift or spike.
//
// The paper's central objects are temporal: follower lists that only ever
// append (Section IV-B), crawls that take 27 days while the list moves
// underneath them, and tools whose sampling windows see only the newest
// slice of a drifting population. monitord operationalises that: a fake-
// follower purchase lands at the newest end of the list, the window-limited
// tools spike within one re-audit, and the whole-list FC estimate moves
// slowly — the Table III divergence, observed live instead of in a single
// snapshot.
//
// Scheduling rides on the auditd serving layer: re-audits are submitted as
// low-priority jobs, so interactive (user-facing) audits always preempt the
// background watch traffic — the queue discipline a production audit
// service would run.
package monitord

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"fakeproject/internal/auditd"
	"fakeproject/internal/metrics"
	"fakeproject/internal/simclock"
)

// Errors returned by watch management.
var (
	// ErrBadWatch reports an invalid watch specification.
	ErrBadWatch = errors.New("monitord: invalid watch spec")
	// ErrUnknownTarget reports an operation on a target that is not watched.
	ErrUnknownTarget = errors.New("monitord: target not watched")
	// ErrClosed reports an operation on a stopped monitor.
	ErrClosed = errors.New("monitord: monitor closed")
)

const (
	// backgroundPriority is the auditd priority of re-audit jobs: any
	// interactive submission (priority 0 and above) runs first.
	backgroundPriority = -10
	// seriesCap bounds each (target, tool) ring buffer.
	seriesCap = 256
	// alertCap bounds the retained alerts, oldest dropped.
	alertCap = 1024
)

// Config configures a Monitor.
type Config struct {
	// Service executes the re-audits. Required.
	Service *auditd.Service
	// Clock drives cadences and point timestamps (default: real clock).
	Clock simclock.Clock
	// BeforeRound, when set, is called before a round's jobs are submitted
	// — the hook platform dynamics ride on (churn applied here is what the
	// round's audits observe, consistently across tools).
	BeforeRound func(target string)
	// OnRound, when set, is called after a round's jobs are submitted and
	// before they are awaited — the hook experiments use to inject
	// interactive traffic while background work is queued.
	OnRound func(target string, jobs []auditd.JobID)
}

func (c Config) withDefaults() Config {
	if c.Clock == nil {
		c.Clock = simclock.Real{}
	}
	return c
}

// WatchSpec registers one target for continuous monitoring.
type WatchSpec struct {
	// Target is the screen name to monitor.
	Target string `json:"target"`
	// Tools lists the engines to track (empty = every configured tool).
	Tools []string `json:"tools,omitempty"`
	// Cadence is the re-audit interval (default 24h of service-clock time).
	Cadence time.Duration `json:"cadence,omitempty"`
	// Rules configures this watch's alerting thresholds.
	Rules Rules `json:"rules"`
}

// WatchStatus is the public view of a registered watch.
type WatchStatus struct {
	Spec WatchSpec `json:"spec"`
	// Rounds counts completed re-audit rounds.
	Rounds int `json:"rounds"`
	// LastRun and NextDue bracket the schedule on the monitor's clock.
	LastRun time.Time `json:"last_run,omitzero"`
	NextDue time.Time `json:"next_due"`
	// LastError is the most recent tool failure (empty after a clean
	// round). A watch registered for a target the backend doesn't know
	// shows its resolution error here instead of silently staying empty.
	LastError string `json:"last_error,omitempty"`
}

// watch is the internal mutable record of one monitored target.
type watch struct {
	spec    WatchSpec
	rounds  int
	lastRun time.Time
	nextDue time.Time
	series  map[string]*ring[Point] // tool → verdict ring
	// lastErr is the most recent tool failure message (empty after a fully
	// clean round); surfaced in WatchStatus so a watch whose audits always
	// fail (e.g. a mistyped target) is distinguishable from a quiet one.
	lastErr string
	// Round-level follow-rate state: the first successful observation of
	// each round carries the rate rules (see evaluateRate).
	ratePrev  Point
	rateHas   bool
	rateRound int
}

// Monitor is a continuous fake-follower monitor over an audit service.
type Monitor struct {
	cfg   Config
	svc   *auditd.Service
	clock simclock.Clock

	mu      sync.Mutex
	watches map[string]*watch
	alerts  *ring[Alert]
	closed  bool
	// wake nudges a paced Run loop when the watchlist changes.
	wake chan struct{}

	// Observability state (all guarded by mu): alertCounts tallies every
	// alert ever raised per detector kind (retention-independent, unlike
	// the alert ring), roundsTotal counts completed re-audit rounds, and
	// lastTickLag is how late the most recent Tick found its most overdue
	// watch — the scheduler's backlog signal.
	alertCounts map[AlertKind]uint64
	roundsTotal uint64
	lastTickLag time.Duration
}

// New creates a monitor over cfg.Service.
func New(cfg Config) (*Monitor, error) {
	if cfg.Service == nil {
		return nil, fmt.Errorf("monitord: no audit service configured")
	}
	cfg = cfg.withDefaults()
	return &Monitor{
		cfg:         cfg,
		svc:         cfg.Service,
		clock:       cfg.Clock,
		watches:     make(map[string]*watch),
		alerts:      newRing[Alert](alertCap),
		wake:        make(chan struct{}, 1),
		alertCounts: make(map[AlertKind]uint64),
	}, nil
}

// Watch registers a watch, or updates the spec of an already-watched
// target in place: accumulated series, round counts and alert baselines
// survive a rules or cadence change (series of tools dropped from the new
// spec are discarded). The next re-audit becomes due immediately, so a
// following Tick (re)baselines the series.
func (m *Monitor) Watch(spec WatchSpec) error {
	if strings.TrimSpace(spec.Target) == "" {
		return fmt.Errorf("%w: empty target", ErrBadWatch)
	}
	if spec.Cadence < 0 {
		return fmt.Errorf("%w: negative cadence", ErrBadWatch)
	}
	if spec.Cadence == 0 {
		spec.Cadence = 24 * time.Hour
	}
	known := make(map[string]bool)
	for _, tool := range m.svc.Tools() {
		known[tool] = true
	}
	if len(spec.Tools) == 0 {
		spec.Tools = m.svc.Tools()
	} else {
		for _, tool := range spec.Tools {
			if !known[tool] {
				return fmt.Errorf("%w: unknown tool %q", ErrBadWatch, tool)
			}
		}
	}
	spec.Rules = spec.Rules.withDefaults()

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	w := &watch{
		spec:    spec,
		nextDue: m.clock.Now(),
		series:  make(map[string]*ring[Point], len(spec.Tools)),
	}
	if old, ok := m.watches[spec.Target]; ok {
		// A spec update must not destroy the history behind it.
		w.rounds = old.rounds
		w.lastRun = old.lastRun
		w.lastErr = old.lastErr
		w.ratePrev, w.rateHas, w.rateRound = old.ratePrev, old.rateHas, old.rateRound
		for _, tool := range spec.Tools {
			if r, kept := old.series[tool]; kept {
				w.series[tool] = r
			}
		}
	}
	for _, tool := range spec.Tools {
		if w.series[tool] == nil {
			w.series[tool] = newRing[Point](seriesCap)
		}
	}
	m.watches[spec.Target] = w
	m.signal()
	return nil
}

// Unwatch removes a target from the watchlist, dropping its series with
// it. Already-raised alerts stay queryable until they age out of the
// alert ring.
func (m *Monitor) Unwatch(target string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.watches[target]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownTarget, target)
	}
	delete(m.watches, target)
	return nil
}

// Watches lists the registered watches, sorted by target.
func (m *Monitor) Watches() []WatchStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]WatchStatus, 0, len(m.watches))
	for _, w := range m.watches {
		out = append(out, w.status())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Spec.Target < out[j].Spec.Target })
	return out
}

// Status returns one watch's schedule state.
func (m *Monitor) Status(target string) (WatchStatus, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	w, ok := m.watches[target]
	if !ok {
		return WatchStatus{}, false
	}
	return w.status(), true
}

// status snapshots the watch; callers hold the monitor's mutex.
func (w *watch) status() WatchStatus {
	return WatchStatus{
		Spec:      w.spec,
		Rounds:    w.rounds,
		LastRun:   w.lastRun,
		NextDue:   w.nextDue,
		LastError: w.lastErr,
	}
}

func (m *Monitor) signal() {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// Close stops intake; a paced Run loop exits on its next scan.
func (m *Monitor) Close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.signal()
}

// Tick runs one scheduler pass: every watch whose nextDue has arrived is
// re-audited (all its tools as individual low-priority jobs), the results
// are appended to the per-tool series, and the alert rules are evaluated
// on the fresh points. Tick blocks until the round's jobs finish and
// returns how many watches ran.
//
// Tick is the deterministic core the experiments drive day by day; the
// daemon wraps it in Run.
func (m *Monitor) Tick(ctx context.Context) (int, error) {
	now := m.clock.Now()
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return 0, ErrClosed
	}
	due := make([]*watch, 0, len(m.watches))
	var lag time.Duration
	for _, w := range m.watches {
		if !w.nextDue.After(now) {
			due = append(due, w)
			if l := now.Sub(w.nextDue); l > lag {
				lag = l
			}
		}
	}
	m.lastTickLag = lag
	m.mu.Unlock()
	sort.Slice(due, func(i, j int) bool { return due[i].spec.Target < due[j].spec.Target })

	ran := 0
	for _, w := range due {
		if err := m.runRound(ctx, w); err != nil {
			return ran, err
		}
		ran++
	}
	return ran, nil
}

// roundJob pairs a submitted job with the tool it re-audits. deduped is
// the submit-time flag: true when the submission coalesced onto a job that
// predates this round (the awaited snapshot's Deduped can also be set by
// later interactive coalescers, so it cannot be used for this).
type roundJob struct {
	tool    string
	id      auditd.JobID
	deduped bool
}

// runRound executes one re-audit round for one watch.
func (m *Monitor) runRound(ctx context.Context, w *watch) error {
	target := w.spec.Target
	if m.cfg.BeforeRound != nil {
		m.cfg.BeforeRound(target)
	}
	// Invalidate the target's cached results first, so cadences shorter
	// than the cache TTL still observe the live platform rather than
	// replaying a stale verdict.
	m.svc.Invalidate(target, w.spec.Tools...)

	// One job per tool: finer preemption granularity (an interactive audit
	// slots in between two background tool runs rather than behind all of
	// them) and a per-tool point even when another tool fails.
	m.mu.Lock()
	w.lastErr = "" // a clean round clears the sticky failure
	m.mu.Unlock()

	jobs := make([]roundJob, 0, len(w.spec.Tools))
	for _, tool := range w.spec.Tools {
		snap, err := m.svc.Submit(auditd.JobSpec{
			Target:   target,
			Tools:    []string{tool},
			Priority: backgroundPriority,
		})
		if err != nil {
			// Backpressure or shutdown: skip the rest of this round and
			// try again at the next cadence instead of wedging the
			// scheduler — but leave the failure on record so the watch is
			// distinguishable from a quiet one.
			m.mu.Lock()
			w.lastErr = tool + ": " + err.Error()
			m.mu.Unlock()
			break
		}
		jobs = append(jobs, roundJob{tool: tool, id: snap.ID, deduped: snap.Deduped})
	}
	if m.cfg.OnRound != nil {
		ids := make([]auditd.JobID, 0, len(jobs))
		for _, j := range jobs {
			ids = append(ids, j.id)
		}
		m.cfg.OnRound(target, ids)
	}

	for _, j := range jobs {
		snap, err := m.svc.Await(ctx, j.id)
		if err != nil {
			return fmt.Errorf("monitord: awaiting %s/%s: %w", target, j.tool, err)
		}
		if j.deduped {
			// The submission coalesced onto an analysis that started before
			// this round's state (e.g. an in-flight interactive audit from
			// before the churn hook ran). Its verdict is honest but stale;
			// chase it with one fresh follow-up so the series point
			// reflects the round it is recorded under.
			if fresh, ok := m.resubmit(ctx, target, j.tool); ok {
				snap = fresh
			}
		}
		m.ingest(w, j.tool, snap)
	}

	m.mu.Lock()
	w.rounds++
	m.roundsTotal++
	w.lastRun = m.clock.Now()
	w.nextDue = w.lastRun.Add(w.spec.Cadence)
	m.mu.Unlock()
	return nil
}

// resubmit invalidates and re-runs one (target, tool) audit, returning the
// fresh snapshot. It retries the coalescing race once, not in a loop.
func (m *Monitor) resubmit(ctx context.Context, target, tool string) (auditd.JobSnapshot, bool) {
	m.svc.Invalidate(target, tool)
	snap, err := m.svc.Submit(auditd.JobSpec{
		Target:   target,
		Tools:    []string{tool},
		Priority: backgroundPriority,
	})
	if err != nil {
		return auditd.JobSnapshot{}, false
	}
	if !snap.State.Terminal() {
		if snap, err = m.svc.Await(ctx, snap.ID); err != nil {
			return auditd.JobSnapshot{}, false
		}
	}
	return snap, true
}

// ingest appends one tool verdict to the watch's series and evaluates the
// alert rules against the previous point.
func (m *Monitor) ingest(w *watch, tool string, snap auditd.JobSnapshot) {
	res, ok := snap.Results[tool]
	if !ok || res.Err != "" || snap.State != auditd.StateDone {
		// Failed audits leave no point: a gap in the series, like a crawl
		// that errored in the field. The failure itself is surfaced via
		// WatchStatus.LastError.
		m.mu.Lock()
		switch {
		case res.Err != "":
			w.lastErr = tool + ": " + res.Err
		case snap.Err != "":
			w.lastErr = tool + ": " + snap.Err
		default:
			w.lastErr = tool + ": job ended in state " + string(snap.State)
		}
		m.mu.Unlock()
		return
	}
	rep := res.Report
	point := Point{
		At:          rep.AssessedAt,
		Round:       w.rounds + 1,
		Followers:   rep.Target.FollowersCount,
		InactivePct: rep.InactivePct,
		FakePct:     rep.FakePct,
		GenuinePct:  rep.GenuinePct,
		Cached:      res.CacheHit,
	}
	if point.At.IsZero() {
		point.At = m.clock.Now()
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	ring := w.series[tool]
	prev, hasPrev := ring.last()
	ring.push(point)
	for _, alert := range evaluate(w.spec, tool, prev, hasPrev, point) {
		m.alerts.push(alert)
		m.alertCounts[alert.Kind]++
	}
	// The round's first successful observation carries the target-level
	// follow-rate rules, whichever tool produced it.
	if point.Round != w.rateRound {
		w.rateRound = point.Round
		if w.rateHas {
			for _, alert := range evaluateRate(w.spec, tool, w.ratePrev, point) {
				m.alerts.push(alert)
				m.alertCounts[alert.Kind]++
			}
		}
		w.ratePrev = point
		w.rateHas = true
	}
}

// Series returns the per-tool verdict series of a target (chronological)
// and whether the target has any recorded series.
func (m *Monitor) Series(target string) (map[string][]Point, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	w, ok := m.watches[target]
	if !ok {
		return nil, false
	}
	out := make(map[string][]Point, len(w.series))
	for tool, r := range w.series {
		out[tool] = r.items()
	}
	return out, true
}

// Alerts returns the retained alerts, oldest first; target filters when
// non-empty.
func (m *Monitor) Alerts(target string) []Alert {
	m.mu.Lock()
	defer m.mu.Unlock()
	all := m.alerts.items()
	if target == "" {
		return all
	}
	out := all[:0]
	for _, a := range all {
		if a.Target == target {
			out = append(out, a)
		}
	}
	return out
}

// WatchCount reports the current watchlist size.
func (m *Monitor) WatchCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.watches)
}

// AlertCounts reports how many alerts each detector kind has ever raised.
// Unlike Alerts it is unaffected by ring retention.
func (m *Monitor) AlertCounts() map[AlertKind]uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[AlertKind]uint64, len(m.alertCounts))
	for k, v := range m.alertCounts {
		out[k] = v
	}
	return out
}

// RoundsTotal reports completed re-audit rounds across all watches.
func (m *Monitor) RoundsTotal() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.roundsTotal
}

// TickLag reports how late the most recent scheduler pass found its most
// overdue watch — persistent growth means rounds take longer than the
// cadence allows.
func (m *Monitor) TickLag() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastTickLag
}

// Observe exports the monitor's operational signals into reg: watchlist
// size, scheduler lag, round throughput and one alert counter per detector
// kind, all evaluated at scrape time.
func (m *Monitor) Observe(reg *metrics.Registry) {
	reg.GaugeFunc("monitord_watchlist_size", "Targets under continuous monitoring.",
		func() float64 { return float64(m.WatchCount()) })
	reg.GaugeFunc("monitord_tick_lag_seconds",
		"How late the last scheduler pass found its most overdue watch.",
		func() float64 { return m.TickLag().Seconds() })
	reg.CounterFunc("monitord_rounds_total", "Completed re-audit rounds.",
		func() float64 { return float64(m.RoundsTotal()) })
	for _, kind := range []AlertKind{ThresholdAlert, SpikeAlert, BurstAlert, PurgeAlert} {
		kind := kind
		reg.CounterFunc("monitord_alerts_total", "Alerts raised, by detector kind.",
			func() float64 {
				m.mu.Lock()
				defer m.mu.Unlock()
				return float64(m.alertCounts[kind])
			}, metrics.L("kind", string(kind)))
	}
}

// Run drives the scheduler until ctx is cancelled or the monitor closes.
// Dueness is measured on the monitor's clock; pace throttles scheduler
// scans on the *wall* clock.
//
// With a real clock, pass pace 0: Run sleeps on the clock until the next
// watch is due. With a virtual clock a pure clock-driven loop would spin —
// every virtual sleep returns instantly — so pass a positive pace: each
// wall interval, Run advances the virtual clock to the next due instant
// and ticks, compressing simulated days into real seconds at a bounded
// rate.
func (m *Monitor) Run(ctx context.Context, pace time.Duration) error {
	for {
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			return nil
		}
		var next time.Time
		for _, w := range m.watches {
			if next.IsZero() || w.nextDue.Before(next) {
				next = w.nextDue
			}
		}
		m.mu.Unlock()

		if pace > 0 {
			select {
			//fp:allow walltime crawl pacing throttles real outbound request rate
			case <-time.After(pace):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		if next.IsZero() {
			// Empty watchlist: wait for a registration.
			if pace > 0 {
				continue
			}
			select {
			case <-m.wake:
				continue
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		if wait := next.Sub(m.clock.Now()); wait > 0 {
			if v, ok := m.clock.(*simclock.Virtual); ok {
				// Virtual time is free: jump straight to the due instant.
				v.Advance(wait)
			} else {
				select {
				//fp:allow walltime a real clock waits out the gap in real time
				case <-time.After(wait):
				case <-m.wake:
					continue // watchlist changed; recompute the next due
				case <-ctx.Done():
					return ctx.Err()
				}
			}
		}
		if _, err := m.Tick(ctx); err != nil {
			if errors.Is(err, ErrClosed) {
				return nil
			}
			return err
		}
	}
}

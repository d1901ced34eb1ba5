// Package auditd is the serving layer of the reproduction: an
// audit-as-a-service subsystem modelled after the web deployments the paper
// studies (StatusPeople, Socialbakers, Twitteraudit), which field audit
// requests from many users concurrently and answer repeated requests from
// caches (the "cached" column of Table II).
//
// The package is transport- and engine-agnostic: it schedules audit jobs
// (target screen name × set of tools) on a bounded worker pool fed by a
// priority queue with request deduplication, shares a TTL'd result cache
// across workers, and exposes the whole lifecycle over an HTTP JSON API
// (see Handler). Each worker owns its own per-tool engine instances — and
// therefore its own rate-limit token state — so workers never contend on an
// engine and token budgets scale with the pool, exactly as the commercial
// tools run "large token pools"; what an engine concludes about a target
// does not depend on which worker's instance it is.
package auditd

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"fakeproject/internal/core"
)

// JobID identifies a submitted audit job.
type JobID string

// JobState is the lifecycle state of a job.
type JobState string

// Job lifecycle states.
const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// JobSpec describes one audit request.
type JobSpec struct {
	// Target is the screen name to audit.
	Target string `json:"target"`
	// Tools lists the analytics engines to run; empty means every tool the
	// service was configured with ("all four tools").
	Tools []string `json:"tools,omitempty"`
	// Priority orders the queue: higher runs first; equal priorities run
	// FIFO.
	Priority int `json:"priority,omitempty"`
}

// normalise validates the spec against the configured tool set and puts
// Tools in canonical order.
func (s JobSpec) normalise(known map[string]bool, order []string) (JobSpec, error) {
	if strings.TrimSpace(s.Target) == "" {
		return JobSpec{}, fmt.Errorf("%w: empty target", ErrBadSpec)
	}
	if len(s.Tools) == 0 {
		s.Tools = append([]string(nil), order...)
		return s, nil
	}
	seen := make(map[string]bool, len(s.Tools))
	tools := make([]string, 0, len(s.Tools))
	for _, tool := range s.Tools {
		if !known[tool] {
			return JobSpec{}, fmt.Errorf("%w: unknown tool %q", ErrBadSpec, tool)
		}
		if seen[tool] {
			continue
		}
		seen[tool] = true
		tools = append(tools, tool)
	}
	sort.Strings(tools)
	s.Tools = tools
	return s, nil
}

// dedupKey identifies equivalent requests: same target, same tool set.
func (s JobSpec) dedupKey() string {
	return s.Target + "\x00" + strings.Join(s.Tools, "\x00")
}

// ToolResult is one tool's outcome within a job.
type ToolResult struct {
	// Report is the tool's verdict (zero if Err is set).
	Report core.Report `json:"report"`
	// Err is the failure message, empty on success.
	Err string `json:"error,omitempty"`
	// CacheHit reports whether the result was served from the service's
	// result cache rather than a fresh analysis.
	CacheHit bool `json:"cache_hit"`
}

// JobSnapshot is a point-in-time public view of a job.
type JobSnapshot struct {
	ID      JobID    `json:"id"`
	Spec    JobSpec  `json:"spec"`
	State   JobState `json:"state"`
	Deduped bool     `json:"deduped,omitempty"`
	// Worker is the 1-based pool index that ran the job; 0 while
	// unassigned.
	Worker int `json:"worker,omitempty"`
	// RunSeq is the service-wide execution order: job k was the k-th to
	// start running (0 = never started). Priority tests and monitors use it
	// to prove interactive jobs preempt queued background work regardless
	// of how virtual timestamps interleave.
	RunSeq    uint64                `json:"run_seq,omitempty"`
	Err       string                `json:"error,omitempty"`
	Results   map[string]ToolResult `json:"results,omitempty"`
	Submitted time.Time             `json:"submitted_at"`
	Started   time.Time             `json:"started_at,omitzero"`
	Finished  time.Time             `json:"finished_at,omitzero"`
}

// Elapsed is the queue-to-finish latency for terminal jobs, zero otherwise.
func (s JobSnapshot) Elapsed() time.Duration {
	if !s.State.Terminal() || s.Finished.IsZero() {
		return 0
	}
	return s.Finished.Sub(s.Submitted)
}

// job is the internal mutable record; all fields are guarded by the
// service's jobs mutex except done, which is closed exactly once on
// reaching a terminal state.
type job struct {
	id        JobID
	spec      JobSpec
	state     JobState
	deduped   bool
	worker    int
	runSeq    uint64
	errMsg    string
	results   map[string]ToolResult
	submitted time.Time
	started   time.Time
	finished  time.Time
	canceled  bool
	done      chan struct{}
}

func (j *job) snapshot() JobSnapshot {
	snap := JobSnapshot{
		ID:        j.id,
		Spec:      j.spec,
		State:     j.state,
		Deduped:   j.deduped,
		Worker:    j.worker,
		RunSeq:    j.runSeq,
		Err:       j.errMsg,
		Submitted: j.submitted,
		Started:   j.started,
		Finished:  j.finished,
	}
	if len(j.results) > 0 {
		snap.Results = make(map[string]ToolResult, len(j.results))
		for tool, res := range j.results {
			snap.Results[tool] = res
		}
	}
	return snap
}

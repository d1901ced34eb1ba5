//fp:allow-file walltime the benchmark times real child processes

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"time"

	"fakeproject/internal/auditd"
	"fakeproject/internal/metrics"
)

// auditGolden is bench/golden/audit.json: what every audit reply must
// satisfy. Verdicts are not digested byte for byte because which of the two
// workers (each with its own sampling seed) takes a job is a race; the
// reference engine's verdict must still land on the fixture's ground truth.
type auditGolden struct {
	Tools []string `json:"tools"`
	// FCFakePct is the fixture's fake share and Tolerance the distance, in
	// percentage points, the FC engine's FakePct may lie from it.
	FCFakePct float64 `json:"fc_fake_pct"`
	Tolerance float64 `json:"tolerance_points"`
}

const auditGoldenPath = "bench/golden/audit.json"

// auditReply is the part of auditd's job snapshot the check reads.
type auditReply struct {
	State   string `json:"state"`
	Results map[string]struct {
		Report struct {
			FakePct  float64
			APICalls int
		} `json:"report"`
		Err string `json:"error"`
	} `json:"results"`
}

// auditSession submits cold audits to one auditd over its HTTP API.
type auditSession struct {
	env      *runEnv
	auditd   *child
	client   *http.Client
	golden   auditGolden
	next     int // round-robin position over the audit targets
	body     bytes.Buffer
	apiCalls int // API calls the replies of the timed phase reported
	jobs     int

	before   metrics.SnapshotJSON
	cpuStart []procUsage
}

func startAudit(env *runEnv) (session, error) {
	s := &auditSession{env: env, client: newClient()}
	if err := readJSONFile(auditGoldenPath, &s.golden); err != nil {
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	// The cache is off so that every audit is a cold one: the workload
	// measures the engines, and a cache hit answers in microseconds.
	c, err := env.jan.start("auditd", env.logDir, env.binDir+"/auditd", false,
		"-addr", addr, "-load", env.fx.Snapshot, "-workers", "2", "-cache-ttl", "-1s")
	if err != nil {
		return nil, err
	}
	c.addr = addr
	s.auditd = c
	if err := c.waitHealthy(s.client, time.Now().Add(startTimeout)); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *auditSession) servers() []*child { return []*child{s.auditd} }

func (s *auditSession) peakRSS() (float64, error) { return peakOf(s.servers()) }

func (s *auditSession) stop() {
	s.auditd.stop()
	s.client.CloseIdleConnections()
}

// audit submits one four-tool audit of the next target and checks the
// reply: finished, every tool answered, and the reference engine within
// tolerance of the truth.
func (s *auditSession) audit() error {
	t := s.env.fx.Audit[s.next%len(s.env.fx.Audit)]
	s.next++
	spec, err := json.Marshal(auditd.JobSpec{Target: t.Name, Tools: s.golden.Tools})
	if err != nil {
		return err
	}
	resp, err := s.client.Post("http://"+s.auditd.addr+"/v1/audits?wait=60s", "application/json", bytes.NewReader(spec))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	s.body.Reset()
	if _, err := s.body.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("audit of %s: status %d", t.Name, resp.StatusCode)
	}
	var reply auditReply
	if err := json.Unmarshal(s.body.Bytes(), &reply); err != nil {
		return fmt.Errorf("audit of %s: %w", t.Name, err)
	}
	if reply.State != string(auditd.StateDone) {
		return fmt.Errorf("audit of %s: state %q", t.Name, reply.State)
	}
	for _, tool := range s.golden.Tools {
		r, ok := reply.Results[tool]
		if !ok || r.Err != "" {
			return fmt.Errorf("audit of %s: tool %s missing or failed: %s", t.Name, tool, r.Err)
		}
		s.apiCalls += r.Report.APICalls
	}
	s.jobs++
	if got := reply.Results[auditd.ToolFC].Report.FakePct; math.Abs(got-s.golden.FCFakePct) > s.golden.Tolerance {
		return fmt.Errorf("audit of %s: FC reports %.1f%% fake, fixture has %.0f%%", t.Name, got, s.golden.FCFakePct)
	}
	return nil
}

// verify audits every target once. It is also the warm-up that matters:
// the first job trains the FC classifier.
func (s *auditSession) verify() error {
	for range s.env.fx.Audit {
		if err := s.audit(); err != nil {
			return err
		}
	}
	return nil
}

func (s *auditSession) op() bool { return s.audit() == nil }

func (s *auditSession) beginTimed() error {
	var err error
	if s.before, err = s.auditd.scrape(s.client); err != nil {
		return err
	}
	s.apiCalls, s.jobs = 0, 0
	s.cpuStart, err = usageOf(s.servers())
	return err
}

func (s *auditSession) endTimed(attempted int) (map[string]float64, error) {
	after, err := s.auditd.scrape(s.client)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	if out["auditd.cpu_ms_per_op"], err = cpuDelta(s.servers(), s.cpuStart, attempted); err != nil {
		return nil, err
	}
	if out["auditd.peak_rss_mb"], err = peakOf(s.servers()); err != nil {
		return nil, err
	}
	out["auditd.jobs_failed"] = counterDelta(s.before, after, "auditd_jobs_total", map[string]string{"event": "failed"})
	if s.jobs > 0 {
		out["auditd.api_calls_per_job"] = float64(s.apiCalls) / float64(s.jobs)
	}
	return out, nil
}

func (s *auditSession) finish() (map[string]float64, error) { return nil, nil }

//fp:allow-file walltime the benchmark times real child processes

package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"net/http"
	"os"
	"strconv"
	"time"

	"fakeproject/internal/metrics"
)

// verifyOps is how many requests from the head of the stream are replayed
// and digested before anything is timed.
const verifyOps = 2000

// defaultSeed is the seed the committed golden digests belong to.
const defaultSeed = 20140301

// crawlGolden is bench/golden/crawl.json.
type crawlGolden struct {
	Seed uint64 `json:"seed"`
	Ops  int    `json:"ops"`
	// Digest is the FNV-64a over (status, body) of the first Ops replies.
	// crawl-single and crawl-ring must both produce it: the router is
	// invisible byte for byte.
	Digest string `json:"fnv64a"`
}

const crawlGoldenPath = "bench/golden/crawl.json"

// crawlSession drives the crawl stream at one front address: a twitterd,
// or a routerd with a two-node ring behind it.
type crawlSession struct {
	env      *runEnv
	twitterd []*child
	routerd  *child // nil on crawl-single
	front    *child
	client   *http.Client
	stream   *crawlStream
	cursor   string // next_cursor of the walk in progress
	body     bytes.Buffer

	before   map[*child]metrics.SnapshotJSON
	cpuStart []procUsage
}

func startCrawl(env *runEnv, ring bool) (session, error) {
	s := &crawlSession{env: env, client: newClient(), stream: newCrawlStream(env.fx)}
	nodes := 1
	if ring {
		nodes = 2
	}
	var backends []string
	for i := 0; i < nodes; i++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		args := []string{"-addr", addr, "-load", env.fx.Snapshot, "-no-limits"}
		if ring {
			args = append(args, "-ring-index", strconv.Itoa(i), "-ring-nodes", strconv.Itoa(nodes))
		}
		c, err := env.jan.start(fmt.Sprintf("twitterd%d", i), env.logDir, env.binDir+"/twitterd", false, args...)
		if err != nil {
			return nil, err
		}
		c.addr = addr
		s.twitterd = append(s.twitterd, c)
		backends = append(backends, "http://"+addr)
	}
	s.front = s.twitterd[0]
	if ring {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		c, err := env.jan.start("routerd", env.logDir, env.binDir+"/routerd", false,
			"-addr", addr, "-backends", backends[0]+","+backends[1])
		if err != nil {
			return nil, err
		}
		c.addr = addr
		s.routerd, s.front = c, c
	}
	deadline := time.Now().Add(startTimeout)
	for _, c := range s.servers() {
		if err := c.waitHealthy(s.client, deadline); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *crawlSession) servers() []*child {
	if s.routerd != nil {
		return append([]*child{s.routerd}, s.twitterd...)
	}
	return s.twitterd
}

func (s *crawlSession) peakRSS() (float64, error) { return peakOf(s.servers()) }

func (s *crawlSession) stop() {
	for _, c := range s.servers() {
		c.stop()
	}
	s.client.CloseIdleConnections()
}

// get fetches path from the front into s.body and returns the status.
func (s *crawlSession) get(path string) (int, error) {
	req, err := http.NewRequest(http.MethodGet, "http://"+s.front.addr+path, nil)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Authorization", "Bearer bench")
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	s.body.Reset()
	if _, err := s.body.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// nextCursorOf extracts next_cursor from an ids page.
func nextCursorOf(body []byte) (string, bool) {
	const key = `"next_cursor":`
	i := bytes.LastIndex(body, []byte(key))
	if i < 0 {
		return "", false
	}
	rest := bytes.TrimLeft(body[i+len(key):], " ")
	end := 0
	for end < len(rest) && (rest[end] == '-' || (rest[end] >= '0' && rest[end] <= '9')) {
		end++
	}
	return string(rest[:end]), end > 0
}

// do issues one request of the stream and checks the reply: status 200, a
// JSON body, and for a followers/ids step that the list ends exactly on the
// page the fixture says it ends on. digest, when non-nil, absorbs the
// status and body.
func (s *crawlSession) do(op crawlOp, digest hash.Hash64) error {
	path := op.Path
	if op.Kind == opFollowers && op.Page > 0 {
		path += s.cursor
	}
	status, err := s.get(path)
	if err != nil {
		return err
	}
	body := s.body.Bytes()
	if digest != nil {
		fmt.Fprintf(digest, "%d\n", status)
		digest.Write(body)
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d", opKindNames[op.Kind], status)
	}
	if len(body) < 2 || (body[0] != '{' && body[0] != '[') {
		return fmt.Errorf("%s: body is not JSON", opKindNames[op.Kind])
	}
	if op.Kind != opFollowers {
		return nil
	}
	next, ok := nextCursorOf(body)
	if !ok {
		return errors.New("followers/ids: no next_cursor")
	}
	if done := next == "0"; done != op.LastPage {
		return fmt.Errorf("followers/ids: %s page %d: list end reported=%v, expected=%v",
			s.env.fx.Crawl[op.Target].Name, op.Page, done, op.LastPage)
	}
	s.cursor = next
	return nil
}

func (s *crawlSession) op() bool {
	op := s.stream.next()
	if err := s.do(op, nil); err != nil {
		if op.Kind == opFollowers {
			s.stream.abandonWalk()
		}
		return false
	}
	return true
}

// verify replays the head of the stream and compares its digest with the
// committed one (default seed), then checks on any seed that a full
// follower walk returns exactly followers_count distinct ids, newest first.
func (s *crawlSession) verify() error {
	digest := fnv.New64a()
	for i := 0; i < verifyOps; i++ {
		op := s.stream.next()
		if err := s.do(op, digest); err != nil {
			return fmt.Errorf("request %d of the stream: %w", i, err)
		}
	}
	got := fmt.Sprintf("%016x", digest.Sum64())
	if s.env.fx.Seed == defaultSeed {
		var want crawlGolden
		if err := readJSONFile(crawlGoldenPath, &want); err != nil {
			return err
		}
		if want.Seed != defaultSeed || want.Ops != verifyOps {
			return fmt.Errorf("%s is for seed %d, %d ops", crawlGoldenPath, want.Seed, want.Ops)
		}
		if got != want.Digest {
			return fmt.Errorf("digest of the first %d replies is %s, %s has %s", verifyOps, got, crawlGoldenPath, want.Digest)
		}
	}
	return s.checkWalk(s.env.fx.Crawl[len(s.env.fx.Crawl)/2])
}

// checkWalk crawls t's whole follower list. Follower accounts are created
// in follow order, so newest first means strictly decreasing ids, which
// also makes them distinct.
func (s *crawlSession) checkWalk(t target) error {
	status, err := s.get("/1.1/users/show.json?screen_name=" + t.Name)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("users/show %s: status %d, %v", t.Name, status, err)
	}
	var profile struct {
		ID             int64 `json:"id"`
		FollowersCount int   `json:"followers_count"`
	}
	if err := json.Unmarshal(s.body.Bytes(), &profile); err != nil {
		return fmt.Errorf("users/show %s: %w", t.Name, err)
	}
	if profile.ID != int64(t.ID) || profile.FollowersCount != t.Followers {
		return fmt.Errorf("users/show %s: id %d with %d followers, fixture has id %d with %d",
			t.Name, profile.ID, profile.FollowersCount, t.ID, t.Followers)
	}
	seen, last, cursor := 0, int64(0), "-1"
	for cursor != "0" {
		status, err := s.get("/1.1/followers/ids.json?user_id=" + strconv.FormatInt(int64(t.ID), 10) + "&cursor=" + cursor)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("followers/ids %s: status %d, %v", t.Name, status, err)
		}
		var page struct {
			IDs        []int64 `json:"ids"`
			NextCursor int64   `json:"next_cursor"`
		}
		if err := json.Unmarshal(s.body.Bytes(), &page); err != nil {
			return fmt.Errorf("followers/ids %s: %w", t.Name, err)
		}
		for _, id := range page.IDs {
			if seen > 0 && id >= last {
				return fmt.Errorf("followers/ids %s: id %d after %d is not newest first", t.Name, id, last)
			}
			last = id
			seen++
		}
		cursor = strconv.FormatInt(page.NextCursor, 10)
	}
	if seen != t.Followers {
		return fmt.Errorf("followers/ids %s: walk returned %d ids, followers_count is %d", t.Name, seen, t.Followers)
	}
	return nil
}

func (s *crawlSession) beginTimed() error {
	s.before = map[*child]metrics.SnapshotJSON{}
	for _, c := range s.servers() {
		snap, err := c.scrape(s.client)
		if err != nil {
			return err
		}
		s.before[c] = snap
	}
	var err error
	s.cpuStart, err = usageOf(s.servers())
	return err
}

// endTimed turns the children's counters into per-layer metrics over the
// timed phase.
func (s *crawlSession) endTimed(attempted int) (map[string]float64, error) {
	out := map[string]float64{}
	servers := s.servers()
	skip := 0
	if s.routerd != nil {
		skip = 1
		cpu, err := cpuDelta(servers[:1], s.cpuStart[:1], attempted)
		if err != nil {
			return nil, err
		}
		out["routerd.cpu_ms_per_op"] = cpu
	}
	cpu, err := cpuDelta(servers[skip:], s.cpuStart[skip:], attempted)
	if err != nil {
		return nil, err
	}
	out["twitterd.cpu_ms_per_op"] = cpu

	// Handler time of the ring members is summed over both before the
	// mean is taken, so it is a mean per upstream request.
	api := map[string]string{"plane": "api"}
	var sum float64
	var count uint64
	for _, c := range s.twitterd {
		after, err := c.scrape(s.client)
		if err != nil {
			return nil, err
		}
		n, secs := histDelta(s.before[c], after, "http_request_duration_seconds", api)
		sum, count = sum+secs, count+n
	}
	if count > 0 {
		out["twitterd.handler_mean_us"] = sum / float64(count) * 1e6
	}
	peak, err := peakOf(s.twitterd)
	if err != nil {
		return nil, err
	}
	out["twitterd.peak_rss_mb"] = peak
	if s.routerd == nil {
		return out, nil
	}

	before := s.before[s.routerd]
	after, err := s.routerd.scrape(s.client)
	if err != nil {
		return nil, err
	}
	plane := map[string]string{"plane": "router"}
	mean, requests := histMeanDelta(before, after, "http_request_duration_seconds", plane)
	out["routerd.handler_mean_us"] = mean
	upMean, upstream := histMeanDelta(before, after, "router_upstream_seconds", nil)
	out["routerd.upstream_mean_us"] = upMean
	if requests > 0 {
		per1k := 1000 / float64(requests)
		out["router.upstream_per_request"] = float64(upstream) / float64(requests)
		out["router.hedges_per_1k"] = counterDelta(before, after, "router_hedges_total", nil) * per1k
		out["router.hedge_wins_per_1k"] = counterDelta(before, after, "router_hedge_wins_total", nil) * per1k
	}
	out["router.failovers"] = counterDelta(before, after, "router_failovers_total", nil)
	out["router.ejections"] = counterDelta(before, after, "router_ejections_total", nil)
	if peak, err = peakOf(servers[:1]); err != nil {
		return nil, err
	}
	out["routerd.peak_rss_mb"] = peak
	return out, nil
}

// finish holds the router to its health contract: a backend ejected while
// both were up and serving is a defect, not noise.
func (s *crawlSession) finish() (map[string]float64, error) {
	if s.routerd == nil {
		return nil, nil
	}
	after, err := s.routerd.scrape(s.client)
	if err != nil {
		return nil, err
	}
	if n, _, _ := famTotals(after, "router_ejections_total", nil); n != 0 {
		return nil, fmt.Errorf("router ejected a backend %v times", n)
	}
	return nil, nil
}

func readJSONFile(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

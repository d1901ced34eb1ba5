package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fakeproject/internal/drand"
)

// The standard workload mixes, in canonical order. Each is a read shape;
// the platform's motion (purchase bursts, purge sweeps, a ring member
// dying) is whatever the daemons behind the harness are doing meanwhile.
//
//   - crawl-heavy: followers/ids page walks (with live cursors) and
//     friends/ids first pages — the monitord crawl plane.
//   - audit-heavy: interactive fakecheck submissions with Zipf-skewed
//     targets plus status polls — the auditd front door, where dedup,
//     caching and queue backpressure live.
//   - churn-storm: readers paging and resolving the hottest target — the
//     churn-proof-cursor contract, under fire when that target is churning.
//   - celebrity-hotspot: every request aimed at the single hottest account
//     (profile, pages, timeline), concentrating all load on one store
//     shard — the worst case for lock striping.
//   - multinode: crawl-shaped traffic plus users/lookup batches spanning
//     ring ranges, spread profiles and routed timelines — the shape that
//     exercises a router's spread and failover paths in front of a ring.
const (
	MixCrawlHeavy       = "crawl-heavy"
	MixAuditHeavy       = "audit-heavy"
	MixChurnStorm       = "churn-storm"
	MixCelebrityHotspot = "celebrity-hotspot"
	MixMultiNode        = "multinode"
)

// MixNames lists the standard mixes in canonical order.
func MixNames() []string {
	return []string{MixCrawlHeavy, MixAuditHeavy, MixChurnStorm, MixCelebrityHotspot, MixMultiNode}
}

// buildMix assembles the named mix over this harness. A mix's sampling
// stream is seeded from its name alone.
func (h *Harness) buildMix(name string) (Mix, error) {
	rnd := rand.New(rand.NewSource(int64(drand.New(0).SeedFor("loadgen/" + name))))
	switch name {
	case MixCrawlHeavy:
		return newCrawlMix(h, name, rnd, 32, h.Targets), nil
	case MixAuditHeavy:
		if h.AuditBase == "" {
			return nil, fmt.Errorf("mix %s needs an audit service (none configured)", name)
		}
		return newAuditMix(h, rnd), nil
	case MixChurnStorm:
		return newStormMix(h, rnd), nil
	case MixCelebrityHotspot:
		return newHotspotMix(h, rnd), nil
	case MixMultiNode:
		return newMultiMix(h, rnd), nil
	default:
		return nil, fmt.Errorf("unknown mix %q (have %v)", name, MixNames())
	}
}

// RunMix executes one named mix under the pattern.
func (h *Harness) RunMix(ctx context.Context, name string, p Pattern, d time.Duration, maxInFlight int) (Result, error) {
	return h.RunMixWith(ctx, name, p, d, maxInFlight, nil)
}

// RunMixWith is RunMix recording into a caller-supplied collector (nil for
// a private one) so live progress and metrics publication can observe the
// run as it happens.
func (h *Harness) RunMixWith(ctx context.Context, name string, p Pattern, d time.Duration, maxInFlight int, col *Collector) (Result, error) {
	mix, err := h.buildMix(name)
	if err != nil {
		return Result{}, err
	}
	return RunWith(ctx, mix, p, d, maxInFlight, col), nil
}

// --- crawl-heavy ---

// crawlSlot is one long-running follower crawl: arrivals assigned to the
// slot advance its cursor one page per request, restarting from the top
// when the list is exhausted — exactly the shape of a monitord re-crawl.
type crawlSlot struct {
	mu     sync.Mutex
	target Target
	cursor int64
	token  string
}

type crawlMix struct {
	name  string
	h     *Harness
	slots []*crawlSlot
	rnd   *rand.Rand
}

func newCrawlMix(h *Harness, name string, rnd *rand.Rand, slots int, targets []Target) *crawlMix {
	m := &crawlMix{name: name, h: h, rnd: rnd}
	for i := 0; i < slots; i++ {
		m.slots = append(m.slots, &crawlSlot{
			target: targets[i%len(targets)],
			cursor: cursorFirst,
			token:  fmt.Sprintf("%s-slot%d", name, i),
		})
	}
	return m
}

func (m *crawlMix) Name() string { return m.name }

func (m *crawlMix) Next(i int) Op {
	if i%5 == 4 {
		// A friends/ids first page of a random account: procedural lists
		// exercise the Feistel synthesis path.
		id := m.h.randomUserID(m.rnd)
		token := fmt.Sprintf("%s-friends%d", m.name, i%8)
		return Op{Endpoint: "friends/ids", Do: func(ctx context.Context) error {
			_, err := m.h.get(ctx, m.h.idsURL("/1.1/friends/ids.json", id, cursorFirst), token)
			return err
		}}
	}
	slot := m.slots[i%len(m.slots)]
	return Op{Endpoint: "followers/ids", Do: func(ctx context.Context) error {
		return slot.advance(ctx, m.h)
	}}
}

// advance fetches the slot's next page and moves its cursor.
func (s *crawlSlot) advance(ctx context.Context, h *Harness) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	body, err := h.get(ctx, h.idsURL("/1.1/followers/ids.json", s.target.ID, s.cursor), s.token)
	if err != nil {
		return err
	}
	var page struct {
		NextCursor int64 `json:"next_cursor"`
	}
	if err := json.Unmarshal(body, &page); err != nil {
		return fmt.Errorf("decoding ids page: %w", err)
	}
	if page.NextCursor == cursorDone {
		s.cursor = cursorFirst
	} else {
		s.cursor = page.NextCursor
	}
	return nil
}

// randomUserID picks an account to probe from the resolved pool.
func (h *Harness) randomUserID(rnd *rand.Rand) int64 {
	return h.accounts[rnd.Intn(len(h.accounts))]
}

// --- audit-heavy ---

type auditMix struct {
	h    *Harness
	zipf *rand.Zipf
	// lastJob remembers the most recent submission's id for status polls.
	lastJob atomic.Value // string
}

func newAuditMix(h *Harness, rnd *rand.Rand) *auditMix {
	return &auditMix{
		h: h,
		// Zipf exponent 1.2 over the target family: the hottest target
		// draws the bulk of the submissions, so dedup and the result
		// cache carry realistic skew.
		zipf: rand.NewZipf(rnd, 1.2, 1, uint64(len(h.Targets)-1)),
	}
}

func (m *auditMix) Name() string { return MixAuditHeavy }

func (m *auditMix) Next(i int) Op {
	switch {
	case i%8 == 7:
		return Op{Endpoint: "audits/stats", Do: func(ctx context.Context) error {
			_, err := m.h.get(ctx, m.h.AuditBase+"/v1/stats", "loadd")
			return err
		}}
	case i%8 == 3:
		if id, _ := m.lastJob.Load().(string); id != "" {
			return Op{Endpoint: "audits/status", Do: func(ctx context.Context) error {
				_, err := m.h.get(ctx, m.h.AuditBase+"/v1/audits/"+url.PathEscape(id), "loadd")
				return err
			}}
		}
		fallthrough
	default:
		// No tool list: the audit service runs its default set.
		body, _ := json.Marshal(struct {
			Target string `json:"target"`
		}{m.h.Targets[m.zipf.Uint64()].Name})
		return Op{Endpoint: "audits/submit", Do: func(ctx context.Context) error {
			resp, err := m.h.post(ctx, m.h.AuditBase+"/v1/audits", body)
			if err != nil {
				return err
			}
			var snap struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(resp, &snap); err != nil {
				return fmt.Errorf("decoding submit response: %w", err)
			}
			if snap.ID != "" {
				m.lastJob.Store(snap.ID)
			}
			return nil
		}}
	}
}

// --- churn-storm ---

// stormMix reads the hottest target, the one bursts and purges hit:
// continuing page walks (live cursors racing removals below their
// anchors), fresh first pages, and profile reads whose follower counters
// move between calls.
type stormMix struct {
	h     *Harness
	crawl *crawlMix
	// slotSeq selects crawl slots round-robin independently of the
	// arrival index: slot = i%N with the branch on i%4 would alias and
	// leave the slots whose residues never coincide permanently unused.
	slotSeq int
}

func newStormMix(h *Harness, rnd *rand.Rand) *stormMix {
	hot := []Target{h.Targets[0]}
	return &stormMix{h: h, crawl: newCrawlMix(h, MixChurnStorm, rnd, 16, hot)}
}

func (m *stormMix) Name() string { return MixChurnStorm }

func (m *stormMix) Next(i int) Op {
	hot := m.h.Targets[0]
	switch i % 4 {
	case 0, 1:
		slot := m.crawl.slots[m.slotSeq%len(m.crawl.slots)]
		m.slotSeq++
		return Op{Endpoint: "followers/ids", Do: func(ctx context.Context) error {
			return slot.advance(ctx, m.h)
		}}
	case 2:
		token := fmt.Sprintf("storm-first%d", i%8)
		return Op{Endpoint: "followers/ids:first", Do: func(ctx context.Context) error {
			_, err := m.h.get(ctx, m.h.idsURL("/1.1/followers/ids.json", hot.ID, cursorFirst), token)
			return err
		}}
	default:
		return Op{Endpoint: "users/show", Do: func(ctx context.Context) error {
			params := url.Values{"screen_name": {hot.Name}}
			_, err := m.h.get(ctx, m.h.APIBase+"/1.1/users/show.json?"+params.Encode(), "storm-show")
			return err
		}}
	}
}

// --- celebrity-hotspot ---

// hotspotMix aims every request at the single hottest account. Account
// state is sharded by ID, so profile reads, follower pages and timeline
// pages here all serialise on one shard's lock — the adversarial case for
// the striped store that uniform load never exhibits.
type hotspotMix struct {
	h       *Harness
	crawl   *crawlMix
	slotSeq int // see stormMix.slotSeq
}

func newHotspotMix(h *Harness, rnd *rand.Rand) *hotspotMix {
	hot := []Target{h.Targets[0]}
	return &hotspotMix{h: h, crawl: newCrawlMix(h, MixCelebrityHotspot, rnd, 16, hot)}
}

func (m *hotspotMix) Name() string { return MixCelebrityHotspot }

func (m *hotspotMix) Next(i int) Op {
	hot := m.h.Targets[0]
	switch i % 4 {
	case 0:
		return Op{Endpoint: "users/show", Do: func(ctx context.Context) error {
			params := url.Values{"screen_name": {hot.Name}}
			_, err := m.h.get(ctx, m.h.APIBase+"/1.1/users/show.json?"+params.Encode(), "hotspot-show")
			return err
		}}
	case 1:
		token := fmt.Sprintf("hotspot-tl%d", i%8)
		return Op{Endpoint: "statuses/user_timeline", Do: func(ctx context.Context) error {
			u := m.h.APIBase + "/1.1/statuses/user_timeline.json?user_id=" +
				strconv.FormatInt(hot.ID, 10) + "&count=200"
			_, err := m.h.get(ctx, u, token)
			return err
		}}
	default:
		slot := m.crawl.slots[m.slotSeq%len(m.crawl.slots)]
		m.slotSeq++
		return Op{Endpoint: "followers/ids", Do: func(ctx context.Context) error {
			return slot.advance(ctx, m.h)
		}}
	}
}

// --- multinode ---

// multiMix is the traffic a router in front of a ring has to get right:
// follower page walks and friends first pages (ownership-routed, the
// failover path when a member dies), users/lookup batches spanning ring
// ranges, spread users/show and routed timelines.
type multiMix struct {
	h     *Harness
	crawl *crawlMix
	rnd   *rand.Rand
}

func newMultiMix(h *Harness, rnd *rand.Rand) *multiMix {
	return &multiMix{h: h, crawl: newCrawlMix(h, MixMultiNode, rnd, 32, h.Targets), rnd: rnd}
}

func (m *multiMix) Name() string { return MixMultiNode }

func (m *multiMix) Next(i int) Op {
	switch i % 8 {
	case 5:
		// A users/lookup of 20 ids drawn from the probe pool, which span
		// every ring range with near certainty: one node answers the whole
		// batch, so it holds the router to profiles any node renders.
		ids := make([]string, 20)
		for j := range ids {
			ids[j] = strconv.FormatInt(m.h.randomUserID(m.rnd), 10)
		}
		u := m.h.APIBase + "/1.1/users/lookup.json?user_id=" + strings.Join(ids, ",")
		return Op{Endpoint: "users/lookup", Do: func(ctx context.Context) error {
			_, err := m.h.get(ctx, u, "multi-lookup")
			return err
		}}
	case 6:
		name := m.h.Targets[m.rnd.Intn(len(m.h.Targets))].Name
		return Op{Endpoint: "users/show", Do: func(ctx context.Context) error {
			params := url.Values{"screen_name": {name}}
			_, err := m.h.get(ctx, m.h.APIBase+"/1.1/users/show.json?"+params.Encode(), "multi-show")
			return err
		}}
	case 7:
		id := m.h.Targets[m.rnd.Intn(len(m.h.Targets))].ID
		u := m.h.APIBase + "/1.1/statuses/user_timeline.json?user_id=" +
			strconv.FormatInt(id, 10) + "&count=200"
		token := fmt.Sprintf("multi-tl%d", i%8)
		return Op{Endpoint: "statuses/user_timeline", Do: func(ctx context.Context) error {
			_, err := m.h.get(ctx, u, token)
			return err
		}}
	default:
		return m.crawl.Next(i)
	}
}

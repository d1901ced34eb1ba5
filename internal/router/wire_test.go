package router_test

// The wire observer checks the serving planes against the live store at
// every check of a difftest.Check run. An external package, because
// difftest imports the router; the router's non-test sources stay a
// stdlib+metrics+simclock leaf (fpvet layering).

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"fakeproject/internal/platform"
	"fakeproject/internal/router"
	"fakeproject/internal/simclock"
	"fakeproject/internal/twitter"
	"fakeproject/internal/twitter/difftest"
	"fakeproject/internal/twitterapi"
)

// TestWireServesTheLiveStore replays generated burst/purge streams on a
// prefix holding a two-page follower list and runs the wire observer at
// every check, seeds in parallel. Short mode (the race job) shortens the
// streams, not the steps, and runs the seeds one at a time so the
// timing-sensitive tests of packages beside it keep a CPU.
func TestWireServesTheLiveStore(t *testing.T) {
	n, every := 1000, 500
	if testing.Short() {
		n, every = 150, 150
	}
	prefix := bigList()
	for seed := uint64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			if !testing.Short() {
				t.Parallel()
			}
			difftest.Check(t, difftest.CheckConfig{
				Seed: seed, N: n, CheckEvery: every, Prefix: prefix,
				Deployments: []difftest.Deployment{
					{Name: "store", Full: true, New: func(difftest.TB) difftest.Applier {
						return difftest.Replay(difftest.StoreSeed, prefix)
					}},
					{Name: "wire", Observe: wire},
				},
			})
		})
	}
}

// bigList creates 40 accounts and has the first 39 follow the last, before
// the epoch generated streams start at, more often than one followers/ids
// page holds. Account 40 (slot 39) is owned by member 1 of the 2-node ring,
// so (d) resumes cursors that member minted on its replica; generated
// streams reach it only through rare tail picks.
func bigList() []difftest.Op {
	const accounts, follows = 40, twitterapi.FollowerIDsPageSize + 600
	var ops []difftest.Op
	for i := 0; i < accounts; i++ {
		ops = append(ops, difftest.Op{Kind: difftest.OpCreate, Params: twitter.UserParams{Followers: 300 + i, Bio: i%2 == 0}})
	}
	at := simclock.Epoch.Add(-follows * time.Second)
	for i := 0; i < follows; i++ {
		ops = append(ops, difftest.Op{Kind: difftest.OpFollow, Target: accounts,
			Follower: twitter.UserID(1 + i%(accounts-1)), At: at.Add(time.Duration(i) * time.Second)})
	}
	return ops
}

// wire writes the live snapshot and assembles, from platform.Spec as
// twitterd does, a plain node and every member of 1-, 2- and 4-node rings,
// each ring behind a router with hedging off. Then (a) the plain node's
// decoded answers equal the live observation; (b) every ring answers the
// request surface byte for byte as the plain node does; (c) every range's
// /admin/snapshot export is the same bytes from its primary, its replica
// and the plain node; (d) in the 2-node ring, (b)'s walks and lookups stay
// identical while member 1 is dead and once a probe readmits it on rejoin.
func wire(tb difftest.TB, live difftest.Live) error {
	snap := filepath.Join(tb.TempDir(), "live.snap")
	if err := os.WriteFile(snap, live.Obs.SnapshotBytes, 0o644); err != nil {
		return err
	}
	plain := &node{spec: platform.Spec{Addr: "127.0.0.1:0", Load: snap, NoLimits: true}}
	if err := plain.start(); err != nil {
		return err
	}
	defer plain.kill()
	if err := decodedMatchesLive(plain.base, live); err != nil {
		return fmt.Errorf("plain node vs live store: %w", err)
	}
	probes, err := surface(plain.base, live.Obs)
	if err != nil {
		return fmt.Errorf("plain node: %w", err)
	}
	for _, nodes := range []int{1, 2, 4} {
		if err := ringMatchesPlain(snap, plain, probes, nodes); err != nil {
			return fmt.Errorf("ring-%d: %w", nodes, err)
		}
	}
	return nil
}

// node is one twitterd process, assembled from its Spec as cmd/twitterd
// does, on a virtual clock (holders' exports agree byte for byte only at one
// clock position, which the header stamps); a restart keeps store and address.
type node struct {
	spec  platform.Spec
	store *twitter.Store
	proc  *platform.Process
	base  string
}

func (n *node) start() error {
	clock := simclock.NewVirtualAtEpoch()
	p, err := platform.New(n.spec)
	if err == nil && n.store == nil {
		n.store, err = p.OpenStore(clock)
	}
	if err != nil {
		return err
	}
	p.ServeAPI(n.store, clock)
	n.spec.Addr, err = p.Start()
	n.proc, n.base = p, "http://"+n.spec.Addr
	return err
}

// kill drops the node hard: listener and open connections closed at once.
func (n *node) kill() { _ = n.proc.Server.Close() }

// decodedMatchesLive is step (a): every profile through users/lookup
// batches, a batch with duplicates and unknown ids, users/show of every
// explicit name and a missing one, every target's follower walk and
// materialised friend list, and the observed timelines (tweet users' up to
// the 3,200 the API reaches).
func decodedMatchesLive(base string, live difftest.Live) error {
	c := twitterapi.NewHTTPClient(base, "wire", simclock.Real{})
	obs := live.Obs
	lookup := func(ids []twitter.UserID) error {
		var want []difftest.ObsProfile
		for _, id := range ids {
			if id >= 1 && int(id) <= obs.Users {
				want = append(want, obs.Profiles[id-1])
			}
		}
		got, err := c.UsersLookup(ids)
		return differ(fmt.Sprintf("users/lookup %v", ids), canon(got, difftest.CanonProfile), want, err)
	}
	all := canon(obs.Profiles, func(p difftest.ObsProfile) twitter.UserID { return p.ID })
	batches := slices.Collect(slices.Chunk(all, twitterapi.UsersLookupBatchSize))
	for _, batch := range append(batches, []twitter.UserID{2, 2, twitter.UserID(obs.Users + 7), 1, 0, 2, -1, 1}) {
		if err := lookup(batch); err != nil {
			return err
		}
	}
	for name, id := range obs.Lookups {
		p, err := c.UserByScreenName(name)
		if id < 0 {
			if err == nil || !strings.Contains(err.Error(), "HTTP 404") {
				return fmt.Errorf("users/show of missing name %q: %v, want HTTP 404", name, err)
			}
		} else if err := differ("users/show "+name, canon([]twitter.Profile{p}, difftest.CanonProfile), obs.Profiles[id-1:id], err); err != nil {
			return err
		}
	}
	for id, target := range obs.Targets {
		walk, err := twitterapi.AllFollowerIDs(c, id)
		if err := differ(fmt.Sprintf("followers/ids walk of %d", id), walk, target.Walk, err); err != nil {
			return err
		}
		if target.FriendsSet {
			page, err := c.FriendIDs(id, twitterapi.CursorFirst)
			if err := differ(fmt.Sprintf("friends/ids of %d", id), page.IDs, target.FriendsList, err); err != nil {
				return err
			}
		}
	}
	for id, want := range obs.Timelines {
		depth := 25 // the synthetic sample's
		if slices.Contains(live.Config.TweetUsers, id) {
			depth = twitterapi.TimelineCap
		}
		got, err := timeline(c, id, depth)
		if err := differ(fmt.Sprintf("timeline of %d", id), canon(got, difftest.CanonTweet), want[:min(len(want), depth)], err); err != nil {
			return err
		}
	}
	return nil
}

func canon[T, O any](vs []T, f func(T) O) []O {
	out := make([]O, len(vs))
	for i, v := range vs {
		out[i] = f(v)
	}
	return out
}

// differ reports err, or got and want unless they are equal.
func differ[E comparable](what string, got, want []E, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("%s:\n  wire %.600s\n  live %.600s", what, fmt.Sprint(got), fmt.Sprint(want))
	}
	return nil
}

// timeline reads up to depth tweets of id, newest first, in max_id pages
// as a crawler does.
func timeline(c *twitterapi.HTTPClient, id twitter.UserID, depth int) ([]twitter.Tweet, error) {
	var out []twitter.Tweet
	var maxID twitter.TweetID
	for len(out) < depth {
		count := min(depth-len(out), twitterapi.TimelinePageSize)
		page, err := c.UserTimeline(id, count, maxID)
		out = append(out, page...)
		if err != nil || len(page) < count {
			return out, err
		}
		maxID = page[len(page)-1].ID - 1
	}
	return out, nil
}

// reply is what a client sees of a response; the framing headers count, as
// a router that sends chunked what a node sends sized is visible.
type reply struct {
	status                           int
	body, contentType, contentLength string
}

func (r reply) String() string {
	return fmt.Sprintf("%d [%s, Content-Length %q] %.160q", r.status, r.contentType, r.contentLength, r.body)
}

func get(url string) (reply, error) {
	resp, err := http.Get(url)
	if err != nil {
		return reply{}, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return reply{resp.StatusCode, string(body), resp.Header.Get("Content-Type"), resp.Header.Get("Content-Length")}, err
}

// probe is one request of the surface and the plain node's reply to it.
// again marks the walks and lookups (d) repeats around a member's death.
type probe struct {
	path  string
	want  reply
	again bool
}

// surface fetches the request surface (b) byte-diffs from the plain node:
// every account's profile by name, timeline page and follower walk by
// user_id (each page's path carrying the cursor the page before returned),
// walks by screen_name of every target and every tenth account, every
// other account's friends, users/lookup batches across ranges with
// duplicates and unknowns, and each endpoint's error shapes.
func surface(base string, obs difftest.Observation) ([]probe, error) {
	var probes []probe
	var failed error
	add := func(path string, again bool) reply {
		r, err := get(base + path)
		if err != nil && failed == nil {
			failed = fmt.Errorf("GET %s: %w", path, err)
		}
		probes = append(probes, probe{path, r, again})
		return r
	}
	walk := func(query string) {
		for cursor := twitterapi.CursorFirst; failed == nil; {
			r := add(fmt.Sprintf("/1.1/followers/ids.json?%s&cursor=%d", query, cursor), true)
			var page struct {
				NextCursor int64 `json:"next_cursor"`
			}
			if r.status != http.StatusOK || json.Unmarshal([]byte(r.body), &page) != nil || page.NextCursor == twitterapi.CursorDone {
				return
			}
			cursor = page.NextCursor
		}
	}
	n := obs.Users
	ids := make([]string, n+1)
	for id := 1; id <= n; id++ {
		name := obs.Profiles[id-1].ScreenName
		ids[id-1] = strconv.Itoa(id)
		add("/1.1/users/show.json?screen_name="+name, false)
		add(fmt.Sprintf("/1.1/statuses/user_timeline.json?user_id=%d&count=25", id), false)
		if id%2 == 1 {
			add(fmt.Sprintf("/1.1/friends/ids.json?user_id=%d&cursor=-1", id), false)
		}
		walk(fmt.Sprintf("user_id=%d", id))
		if _, target := obs.Targets[twitter.UserID(id)]; target || id%10 == 1 {
			walk("screen_name=" + name)
		}
	}
	ids[n] = strconv.Itoa(n + 1) // unknown, and one past a full batch
	lookups := []string{fmt.Sprintf("2,2,%d,1,2,%d,1", n+7, n+200), "0,-1,1", "", "1,x",
		strings.Join(ids[:min(n+1, twitterapi.UsersLookupBatchSize+1)], ",")}
	for batch := range slices.Chunk(ids[:n], twitterapi.UsersLookupBatchSize) {
		lookups = append(lookups, strings.Join(batch, ","))
	}
	for _, q := range lookups {
		add("/1.1/users/lookup.json?user_id="+q, true)
	}
	for _, path := range []string{
		"/1.1/users/show.json?screen_name=nosuchuser",
		"/1.1/users/show.json",
		fmt.Sprintf("/1.1/followers/ids.json?user_id=%d&cursor=-1", n+50),
		"/1.1/followers/ids.json?screen_name=nosuchuser&cursor=-1",
		"/1.1/followers/ids.json?user_id=1&cursor=abc",
		"/1.1/followers/ids.json",
		"/1.1/statuses/user_timeline.json?user_id=1&count=5",
		"/1.1/no/such/endpoint.json",
	} {
		add(path, false)
	}
	return probes, failed
}

// ringMatchesPlain boots an N-node ring over snap and checks (b), (c) and,
// for two nodes, (d).
func ringMatchesPlain(snap string, plain *node, probes []probe, nodes int) error {
	members := make([]*node, nodes)
	var bases []string
	for i := range members {
		members[i] = &node{spec: platform.Spec{Addr: "127.0.0.1:0", Load: snap, RingIndex: i, RingNodes: nodes, NoLimits: true}}
		if err := members[i].start(); err != nil {
			return err
		}
		defer members[i].kill()
		bases = append(bases, members[i].base)
	}
	rt, err := router.New(router.Config{Backends: bases, ProbeInterval: -1})
	if err != nil {
		return err
	}
	defer rt.Close()
	rt.DisableHedging() // one upstream request per client request
	front := httptest.NewServer(rt)
	defer front.Close()
	same := func(again bool) error {
		for _, p := range probes {
			if again && !p.again {
				continue
			}
			if got, err := get(front.URL + p.path); err != nil || got != p.want {
				return fmt.Errorf("GET %s:\n  plain node: %v\n  ring:       %v (%v)", p.path, p.want, got, err)
			}
		}
		return nil
	}
	if err := same(false); err != nil { // (b)
		return err
	}
	export := func(query string, holders ...int) error {
		want, err := get(plain.base + "/admin/snapshot" + query)
		for _, m := range holders {
			if got, gerr := get(members[m].base + "/admin/snapshot" + query); err != nil || gerr != nil || want.status != http.StatusOK || got != want {
				return fmt.Errorf("/admin/snapshot%s from member %d: HTTP %d, %d bytes (%v); plain node HTTP %d, %d bytes (%v)",
					query, m, got.status, len(got.body), gerr, want.status, len(want.body), err)
			}
		}
		return nil
	}
	for r := 0; r < nodes; r++ { // (c); position 2r of 2N keeps exactly range r of N
		if err := export(fmt.Sprintf("?node=%d&nodes=%d", 2*r, 2*nodes), r, (r+nodes-1)%nodes); err != nil {
			return err
		}
		if err := export(fmt.Sprintf("?node=%d&nodes=%d", r, nodes), r); err != nil { // r's held set
			return err
		}
	}
	if nodes != 2 {
		return nil
	}
	members[1].kill() // (d)
	if err := same(true); err != nil {
		return fmt.Errorf("member 1 dead: %w", err)
	}
	if got := rt.Healthy(); got != 1 {
		return fmt.Errorf("member 1 dead: Healthy() = %d, want it ejected", got)
	}
	if err := members[1].start(); err != nil {
		return fmt.Errorf("member 1 rejoining: %w", err)
	}
	if rt.ProbeOnce(); rt.Healthy() != 2 {
		return fmt.Errorf("member 1 rejoined: Healthy() = %d after a probe, want 2", rt.Healthy())
	}
	if err := same(true); err != nil {
		return fmt.Errorf("member 1 rejoined: %w", err)
	}
	return nil
}

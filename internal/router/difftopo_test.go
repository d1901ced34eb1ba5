package router

// The cross-topology differential test: the router's contract is to be
// byte-invisible. One canonical population (a difftest op stream applied
// to a store, snapshotted) is deployed three ways — behind a 1-node, a
// 2-node and a 4-node ring — and every observable a client can reach
// through the router is byte-diffed against a plain single-node server
// over the same snapshot: profiles by name, scattered batch lookups with
// duplicates and unknowns, full follower cursor walks, friends pages,
// timelines, and each endpoint's error bytes. On top of the HTTP surface,
// the range-snapshot exports of every range are compared across all of the
// range's holders (primary, replica, and a node that loaded everything):
// ownership transfer must be verifiable with a plain byte compare.
//
// These are test-only imports of the store and API packages; the router's
// non-test sources stay a stdlib+metrics+simclock leaf (fpvet layering).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"fakeproject/internal/simclock"
	"fakeproject/internal/twitter"
	"fakeproject/internal/twitter/difftest"
	"fakeproject/internal/twitterapi"
)

// buildCanonicalSnapshot replays a difftest op stream into a store and
// returns its canonical snapshot bytes.
func buildCanonicalSnapshot(t *testing.T, seed uint64, nops int) []byte {
	t.Helper()
	applier := difftest.NewStoreApplier(seed)
	for _, op := range difftest.Generate(seed, nops) {
		difftest.Apply(applier, op)
	}
	snap, err := applier.Snapshot()
	if err != nil {
		t.Fatalf("snapshotting canonical state: %v", err)
	}
	return snap
}

// newAPIServer boots a twitterd-equivalent node over a store: the API
// plane without rate limits, plus /healthz for the router's probes.
func newAPIServer(store *twitter.Store, clock simclock.Clock) *httptest.Server {
	mux := http.NewServeMux()
	mux.Handle("/", twitterapi.NewServerLimits(twitterapi.NewService(store), clock, nil))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(w, "ok\n")
	})
	return httptest.NewServer(mux)
}

type topology struct {
	stores []*twitter.Store
	nodes  []*httptest.Server
	front  *httptest.Server
	rt     *Router
}

func (tp *topology) close() {
	if tp.front != nil {
		tp.front.Close()
	}
	if tp.rt != nil {
		tp.rt.Close()
	}
	for _, n := range tp.nodes {
		n.Close()
	}
}

// bootTopology range-loads one partial store per ring member from snap and
// fronts them with a router.
func bootTopology(t *testing.T, snap []byte, nodes int) *topology {
	t.Helper()
	ring := NewRing(DefaultSlots, nodes)
	tp := &topology{}
	var bases []string
	for i := 0; i < nodes; i++ {
		node := i
		store, err := twitter.ReadSnapshotRange(bytes.NewReader(snap), simclock.NewVirtualAtEpoch(),
			func(id twitter.UserID) bool { return ring.Keep(node, int64(id)) })
		if err != nil {
			tp.close()
			t.Fatalf("range-loading node %d/%d: %v", node, nodes, err)
		}
		srv := newAPIServer(store, simclock.NewVirtualAtEpoch())
		tp.stores = append(tp.stores, store)
		tp.nodes = append(tp.nodes, srv)
		bases = append(bases, srv.URL)
	}
	rt, err := New(Config{Backends: bases, ProbeInterval: -1})
	if err != nil {
		tp.close()
		t.Fatal(err)
	}
	rt.noHedge = true // determinism: no duplicate requests
	tp.rt = rt
	tp.front = httptest.NewServer(rt)
	return tp
}

// reply is what a client sees of a response: the framing headers count,
// since a body the router sends chunked where a node sends it with a
// Content-Length is a visible difference between the topologies.
type reply struct {
	status        int
	body          []byte
	contentType   string
	contentLength string
}

// same reports whether two replies are indistinguishable to a client.
func (r reply) same(o reply) bool {
	return r.status == o.status && bytes.Equal(r.body, o.body) &&
		r.contentType == o.contentType && r.contentLength == o.contentLength
}

func (r reply) String() string {
	return fmt.Sprintf("%d [%s, Content-Length %q] %q", r.status, r.contentType, r.contentLength, truncate(r.body))
}

func fetch(t *testing.T, client *http.Client, base, path string) reply {
	t.Helper()
	resp, err := client.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", path, err)
	}
	return reply{resp.StatusCode, body, resp.Header.Get("Content-Type"), resp.Header.Get("Content-Length")}
}

func TestCrossTopologyDifferential(t *testing.T) {
	const seed, nops = 20140301, 400
	snap := buildCanonicalSnapshot(t, seed, nops)

	// The single-node truth: a plain server over the full snapshot, no
	// router anywhere near it.
	baseStore, err := twitter.ReadSnapshot(bytes.NewReader(snap), simclock.NewVirtualAtEpoch())
	if err != nil {
		t.Fatal(err)
	}
	baseline := newAPIServer(baseStore, simclock.NewVirtualAtEpoch())
	defer baseline.Close()

	n := baseStore.UserCount()
	if n < 16 {
		t.Fatalf("canonical population has only %d users; op stream too small", n)
	}
	names := make([]string, n+1) // 1-indexed
	for id := 1; id <= n; id++ {
		p, err := baseStore.Profile(twitter.UserID(id))
		if err != nil {
			t.Fatalf("profile %d: %v", id, err)
		}
		names[id] = p.ScreenName
	}

	paths := observablePaths(n, names)
	t.Logf("%d users, %d observable request paths", n, len(paths))

	for _, nodes := range []int{1, 2, 4} {
		nodes := nodes
		t.Run(fmt.Sprintf("ring-%d", nodes), func(t *testing.T) {
			tp := bootTopology(t, snap, nodes)
			defer tp.close()
			client := tp.front.Client()
			mismatches := 0
			for _, path := range paths {
				want := fetch(t, client, baseline.URL, path)
				got := fetch(t, client, tp.front.URL, path)
				if !got.same(want) {
					mismatches++
					if mismatches <= 5 {
						t.Errorf("divergence on %s:\n  single-node: %v\n  ring-%d:     %v", path, want, nodes, got)
					}
				}
			}
			if mismatches > 5 {
				t.Errorf("... and %d more divergences", mismatches-5)
			}
			checkRangeExports(t, snap, tp, nodes)
		})
	}
}

// observablePaths enumerates the request surface to byte-diff: every
// account's profile, batch lookups (split across ranges, with duplicates
// and unknowns), full follower walks, friends and timeline pages, and the
// canonical error bytes of each endpoint.
func observablePaths(n int, names []string) []string {
	var paths []string
	add := func(p string) { paths = append(paths, p) }

	// users/show by every name, plus the unknown-name and missing-param
	// error bytes.
	for id := 1; id <= n; id++ {
		add("/1.1/users/show.json?screen_name=" + names[id])
	}
	add("/1.1/users/show.json?screen_name=nosuchuser")
	add("/1.1/users/show.json")

	// users/lookup: all accounts in ring-crossing batches, a batch with
	// duplicates and unknowns, and the three error shapes.
	for lo := 1; lo <= n; lo += 100 {
		hi := lo + 100
		if hi > n+1 {
			hi = n + 1
		}
		ids := make([]string, 0, hi-lo)
		for id := lo; id < hi; id++ {
			ids = append(ids, strconv.Itoa(id))
		}
		add("/1.1/users/lookup.json?user_id=" + strings.Join(ids, ","))
	}
	add(fmt.Sprintf("/1.1/users/lookup.json?user_id=2,2,%d,1,2,%d,1", n+7, n+200))
	add("/1.1/users/lookup.json?user_id=0,-1,1")
	add("/1.1/users/lookup.json")
	add("/1.1/users/lookup.json?user_id=1,x")
	{
		big := make([]string, 101)
		for i := range big {
			big[i] = strconv.Itoa(i + 1)
		}
		add("/1.1/users/lookup.json?user_id=" + strings.Join(big, ","))
	}

	// followers/ids: first page for everyone (non-targets answer the empty
	// page — silently wrong if misrouted, which is the point), by id and by
	// name, plus error bytes.
	for id := 1; id <= n; id++ {
		add(fmt.Sprintf("/1.1/followers/ids.json?user_id=%d&cursor=-1", id))
	}
	for id := 1; id <= n; id += 3 {
		add("/1.1/followers/ids.json?screen_name=" + names[id] + "&cursor=-1")
	}
	add(fmt.Sprintf("/1.1/followers/ids.json?user_id=%d&cursor=-1", n+50)) // unknown id
	add("/1.1/followers/ids.json?screen_name=nosuchuser&cursor=-1")
	add("/1.1/followers/ids.json?user_id=1&cursor=abc")
	add("/1.1/followers/ids.json")

	// friends/ids (the synthetic-permutation path) and timelines.
	for id := 1; id <= n; id += 2 {
		add(fmt.Sprintf("/1.1/friends/ids.json?user_id=%d&cursor=-1", id))
	}
	for id := 1; id <= n; id++ {
		add(fmt.Sprintf("/1.1/statuses/user_timeline.json?user_id=%d&count=200", id))
	}
	add(fmt.Sprintf("/1.1/statuses/user_timeline.json?user_id=%d&count=5", 1))

	// Unrouted paths forward deterministically too.
	add("/1.1/no/such/endpoint.json")
	return paths
}

// walkFollowers follows a full cursor walk through base and returns every
// page's body in order.
func walkFollowers(t *testing.T, client *http.Client, base string, id int) []reply {
	t.Helper()
	var pages []reply
	cursor := int64(-1)
	for {
		r := fetch(t, client, base, fmt.Sprintf("/1.1/followers/ids.json?user_id=%d&cursor=%d", id, cursor))
		pages = append(pages, r)
		if r.status != http.StatusOK {
			return pages
		}
		var page struct {
			NextCursor int64 `json:"next_cursor"`
		}
		if err := json.Unmarshal(r.body, &page); err != nil {
			t.Fatalf("decoding page: %v", err)
		}
		if page.NextCursor == 0 {
			return pages
		}
		cursor = page.NextCursor
		if len(pages) > 10000 {
			t.Fatal("cursor walk did not terminate")
		}
	}
}

// TestCrossTopologyCursorWalks byte-diffs complete multi-page follower
// walks (the hot accounts) through each ring against the single node.
func TestCrossTopologyCursorWalks(t *testing.T) {
	const seed, nops = 77, 400
	snap := buildCanonicalSnapshot(t, seed, nops)
	baseStore, err := twitter.ReadSnapshot(bytes.NewReader(snap), simclock.NewVirtualAtEpoch())
	if err != nil {
		t.Fatal(err)
	}
	baseline := newAPIServer(baseStore, simclock.NewVirtualAtEpoch())
	defer baseline.Close()

	// The generator concentrates follows on the head IDs: walk those.
	hot := []int{1, 2, 3, 4}
	for _, nodes := range []int{1, 2, 4} {
		tp := bootTopology(t, snap, nodes)
		client := tp.front.Client()
		for _, id := range hot {
			want := walkFollowers(t, client, baseline.URL, id)
			got := walkFollowers(t, client, tp.front.URL, id)
			if len(got) != len(want) {
				t.Errorf("ring-%d: id %d walk has %d pages, single-node %d", nodes, id, len(got), len(want))
				continue
			}
			for i := range want {
				if !got[i].same(want[i]) {
					t.Errorf("ring-%d: id %d page %d diverged:\n  want %v\n  got  %v", nodes, id, i, want[i], got[i])
				}
			}
		}
		tp.close()
	}
}

// checkRangeExports verifies ownership transfer: for every ring range, the
// range snapshot exported by its primary holder, its replica holder and a
// keep-everything store are byte-identical.
func checkRangeExports(t *testing.T, snap []byte, tp *topology, nodes int) {
	t.Helper()
	// A keep-all range-load (folded like the nodes, holding every target).
	full, err := twitter.ReadSnapshotRange(bytes.NewReader(snap), simclock.NewVirtualAtEpoch(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ring := NewRing(DefaultSlots, nodes)
	export := func(s *twitter.Store, owner int) []byte {
		lo, hi := ring.OwnedRange(owner)
		var buf bytes.Buffer
		err := s.WriteSnapshotRange(&buf, func(id twitter.UserID) bool {
			slot := ring.Slot(int64(id))
			return slot >= lo && slot < hi
		})
		if err != nil {
			t.Fatalf("range export: %v", err)
		}
		return buf.Bytes()
	}
	for owner := 0; owner < nodes; owner++ {
		fromPrimary := export(tp.stores[owner], owner)
		fromFull := export(full, owner)
		if !bytes.Equal(fromPrimary, fromFull) {
			t.Errorf("ring-%d: range %d export differs between its primary and a full store (%d vs %d bytes)",
				nodes, owner, len(fromPrimary), len(fromFull))
		}
		if nodes > 1 {
			replica := (owner + nodes - 1) % nodes
			fromReplica := export(tp.stores[replica], owner)
			if !bytes.Equal(fromPrimary, fromReplica) {
				t.Errorf("ring-%d: range %d export differs between primary %d and replica %d (%d vs %d bytes)",
					nodes, owner, owner, replica, len(fromPrimary), len(fromReplica))
			}
		}
	}
}

func truncate(b []byte) string {
	if len(b) > 160 {
		return string(b[:160]) + "..."
	}
	return string(b)
}

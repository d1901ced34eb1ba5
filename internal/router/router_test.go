package router

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"

	"fakeproject/internal/metrics"
	"fakeproject/internal/simclock"
	"fakeproject/internal/twitter"
	"fakeproject/internal/twitterapi"
)

// encoderNames are screen names that exercise the encoder's string
// escaping, and so every byte a query string must escape: the
// two-character escapes, \u00XX, U+2028 and U+2029, the HTML-safe < > &,
// and invalid UTF-8.
var encoderNames = []string{
	"plain",
	"\"\\\b\f\n\r\t\x7f",
	"\u2028\u2029",
	"<a&b>",
	"\xff",
	"a\xc0\xafb",
	"\u00e9\xe2\x80",
	"\u2027\u202a",
	"\x00",
}

// TestRoutePolicy pins the one routing policy. On a healthy ring a request
// for a slot goes to the slot's owner and then its replica, whether or not
// any node may answer it, and an any-node request with no slot goes to
// backends 0 and 1. An ejected backend drops behind every healthy
// candidate but stays the last resort.
func TestRoutePolicy(t *testing.T) {
	idx := func(b *backend) int {
		if b == nil {
			return -1
		}
		return b.index
	}
	for nodes := 1; nodes <= 5; nodes++ {
		bases := make([]string, nodes)
		for i := range bases {
			bases[i] = fmt.Sprintf("http://127.0.0.1:%d", 1+i)
		}
		rt, err := New(Config{Backends: bases, ProbeInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		for slot := 0; slot < DefaultSlots; slot++ {
			wantFirst, wantSecond := rt.ring.Owner(slot), rt.ring.Secondary(slot)
			if nodes == 1 {
				wantSecond = -1
			}
			for _, anyNode := range []bool{false, true} {
				first, second := rt.route(slot, anyNode)
				if idx(first) != wantFirst || idx(second) != wantSecond {
					t.Fatalf("nodes=%d slot=%d any=%v: route = (%d, %d), want (%d, %d)",
						nodes, slot, anyNode, idx(first), idx(second), wantFirst, wantSecond)
				}
			}
		}
		wantSecond := 1
		if nodes == 1 {
			wantSecond = -1
		}
		if first, second := rt.route(noSlot, true); idx(first) != 0 || idx(second) != wantSecond {
			t.Fatalf("nodes=%d: any-node route = (%d, %d), want (0, %d)", nodes, idx(first), idx(second), wantSecond)
		}
		rt.Close()
	}

	rt, err := New(Config{Backends: []string{"http://a", "http://b", "http://c", "http://d"}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	slot := DefaultSlots / 2 // owner 2, replica 1
	rt.backends[2].healthy.Store(false)
	for _, tc := range []struct {
		anyNode       bool
		first, second int
	}{
		{false, 1, 2}, // owned: replica first, the ejected owner as last resort
		{true, 1, 0},  // any node: replica, then the next healthy node
	} {
		if first, second := rt.route(slot, tc.anyNode); idx(first) != tc.first || idx(second) != tc.second {
			t.Errorf("owner ejected, any=%v: route = (%d, %d), want (%d, %d)",
				tc.anyNode, idx(first), idx(second), tc.first, tc.second)
		}
	}
	for _, b := range rt.backends {
		b.healthy.Store(false)
	}
	if first, second := rt.route(slot, true); idx(first) != 2 || idx(second) != 1 {
		t.Errorf("all ejected: route = (%d, %d), want the holders (2, 1)", idx(first), idx(second))
	}
}

// TestLookupsSkipEjectedHolders: once backend 0 is ejected, no
// users/lookup may try it first — not even one whose key slot backend 0
// owns. Each goes whole straight to the other holder, with no failover
// spent on the way.
func TestLookupsSkipEjectedHolders(t *testing.T) {
	flaky := &flakyBackend{}
	flaky.down.Store(true)
	var mu sync.Mutex
	var lookupsAt0 int
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == pathUsersLookup {
			mu.Lock()
			lookupsAt0++
			mu.Unlock()
		}
		flaky.ServeHTTP(w, r)
	}))
	defer down.Close()
	// The replica holds everything: it answers every lookup ID it is asked.
	good := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if r.URL.Path != pathUsersLookup {
			_, _ = io.WriteString(w, fastPage)
			return
		}
		_, _ = w.Write(lookupBody(r.URL.Query().Get("user_id")))
	}))
	defer good.Close()

	rt, err := New(Config{
		Backends:      []string{down.URL, good.URL},
		Registry:      metrics.NewRegistry(),
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.noHedge = true // count attempts exactly
	front := httptest.NewServer(rt)
	defer front.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := front.Client().Get(front.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d %q", path, resp.StatusCode, body)
		}
		return string(body)
	}
	for i := 0; i < failThreshold; i++ {
		get("/1.1/followers/ids.json?user_id=1&cursor=-1")
	}
	if rt.Healthy() != 1 {
		t.Fatalf("Healthy() = %d, want backend 0 ejected", rt.Healthy())
	}
	failovers := rt.m.failovers.Value()

	// IDs 1 and 2 sit in backend 0's range; 40 in backend 1's.
	for _, list := range []string{"1,2", "1,40", "1,40,2,2,14,41,3,77"} {
		if got := get("/1.1/users/lookup.json?user_id=" + list); got != string(lookupBody(list)) {
			t.Errorf("lookup %s answered %q", list, got)
		}
	}
	if rt.ring.Owner(rt.keySlot("1,40,2,2,14,41,3,77")) != 0 {
		t.Error("no lookup's key slot is owned by the ejected backend 0")
	}
	mu.Lock()
	defer mu.Unlock()
	if lookupsAt0 != 0 {
		t.Errorf("ejected backend 0 received %d lookups", lookupsAt0)
	}
	if got := rt.m.failovers.Value(); got != failovers {
		t.Errorf("router_failovers_total moved %d -> %d: a lookup tried the ejected holder", failovers, got)
	}
}

// TestNameSlotIsFNV1a: keySlot hashes in place, and every key lands on
// the slot hash/fnv's 64-bit FNV-1a gave it — the bench fixture's names,
// the op streams' names, the encoder's escaping names, the empty one and
// users/lookup id lists.
func TestNameSlotIsFNV1a(t *testing.T) {
	rt, err := New(Config{Backends: []string{"http://127.0.0.1:0"}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	names := append([]string{"", "davc", "genpop_target", "missing_name", "1,40,2", "0,-1,1", "1,x"}, encoderNames...)
	for i := 0; i < 16; i++ {
		names = append(names, fmt.Sprintf("crawl_t%02d", i), fmt.Sprintf("audit_t%02d", i), fmt.Sprintf("u%05d", i*731))
	}
	for _, name := range names {
		h := fnv.New64a()
		_, _ = h.Write([]byte(name))
		if got, want := rt.keySlot(name), int(h.Sum64()%DefaultSlots); got != want {
			t.Errorf("keySlot(%q) = %d, hash/fnv puts it at %d", name, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { rt.keySlot("crawl_t07") }); n != 0 {
		t.Errorf("keySlot allocates %.0f times", n)
	}
}

// TestNamesSurviveTheQueryString: a followers/ids by screen_name of every
// escaping name answers the node's own bytes through the router, and the
// router resolves the name to the id the node's store holds for it.
func TestNamesSurviveTheQueryString(t *testing.T) {
	clock := simclock.NewVirtualAtEpoch()
	store := twitter.NewStore(clock, 1)
	node := httptest.NewServer(twitterapi.NewServerLimits(twitterapi.NewService(store), clock, nil))
	defer node.Close()
	rt, err := New(Config{Backends: []string{node.URL}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt)
	defer front.Close()
	fetch := func(uri string) string {
		resp, err := http.Get(uri)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return fmt.Sprintf("%d %s", resp.StatusCode, body)
	}
	for _, name := range encoderNames {
		id, err := store.CreateUser(twitter.UserParams{ScreenName: name})
		if err != nil {
			t.Fatal(err)
		}
		path := pathFollowerIDs + "?screen_name=" + url.QueryEscape(name) + "&cursor=-1"
		if want, got := fetch(node.URL+path), fetch(front.URL+path); got != want || want[:4] != "200 " {
			t.Errorf("%q: router answers %q, node %q", name, got, want)
		}
		if got, res := rt.resolveName(context.Background(), name); res != resolveOK || got != int64(id) {
			t.Errorf("%q resolves to %d (%d), want %d", name, got, res, id)
		}
	}
}

// TestOneLookupOneUpstreamRequest: a users/lookup goes whole to one node,
// however many ranges its ids span — N lookups through a 2-node ring are N
// upstream attempts and N lookups at the nodes, each answered with the
// single node's bytes.
func TestOneLookupOneUpstreamRequest(t *testing.T) {
	var lookups [2]atomic.Int32
	var bases []string
	for i := range lookups {
		node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == pathUsersLookup {
				lookups[i].Add(1)
			}
			cutShortBackend{}.ServeHTTP(w, r)
		}))
		defer node.Close()
		bases = append(bases, node.URL)
	}
	rt, err := New(Config{Backends: bases, Registry: metrics.NewRegistry(), ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.noHedge = true
	front := httptest.NewServer(rt)
	defer front.Close()

	const n = 24
	for i := 0; i < n; i++ {
		// ids 1..32 and 33..64 sit in different ranges of the 2-node ring.
		list := fmt.Sprintf("%d,%d,%d,%d", 1+i, 40+i, 1+i, 1000+i)
		resp, err := front.Client().Get(front.URL + pathUsersLookup + "?user_id=" + list)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || string(body) != string(lookupBody(list)) {
			t.Fatalf("lookup %s: HTTP %d %q, want %q", list, resp.StatusCode, body, lookupBody(list))
		}
	}
	if got := rt.m.upstream.Count(); got != n {
		t.Errorf("%d lookups made %d upstream attempts, want %d", n, got, n)
	}
	if a, b := lookups[0].Load(), lookups[1].Load(); a+b != n || a == 0 || b == 0 {
		t.Errorf("nodes saw %d + %d lookups, want %d between them, spread over both", a, b, n)
	}
}

// nopWriter is a ResponseWriter that keeps headers and discards the body.
type nopWriter struct{ h http.Header }

func (w nopWriter) Header() http.Header         { return w.h }
func (w nopWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w nopWriter) WriteHeader(int)             {}

// TestForwardAllocBudget pins the allocations of one forwarded
// followers/ids page with its hedge timer armed, counted process-wide, so
// the node answering it and the HTTP client's connection goroutines count
// too. The hedge delay is warmed to hedgeMax so that no hedge fires.
func TestForwardAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's pools allocate on their own schedule")
	}
	node := httptest.NewServer(cutShortBackend{})
	defer node.Close()
	rt, err := New(Config{Backends: []string{node.URL, node.URL}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	req := httptest.NewRequest(http.MethodGet, "/1.1/followers/ids.json?user_id=1&cursor=-1", nil)
	w := nopWriter{h: make(http.Header)}
	rt.ServeHTTP(w, req) // open the upstream connection
	for i := 0; i < hedgeWarmup; i++ {
		rt.m.upstream.Record(hedgeMax)
	}
	const budget = 108
	got := testing.AllocsPerRun(200, func() { rt.ServeHTTP(w, req) })
	if got > budget {
		t.Errorf("%.1f allocations per forwarded request, budget %d", got, budget)
	}
	t.Logf("%.1f allocations per forwarded request (budget %d)", got, budget)
}

// TestAdminPlaneIsNotRelayed: the router answers /admin/ itself with a
// node's 404 for a path it lacks, so a range export or a name resolution
// never reaches a backend through it.
func TestAdminPlaneIsNotRelayed(t *testing.T) {
	var seen atomic.Int32
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen.Add(1)
		w.Write([]byte("4"))
	}))
	defer node.Close()
	rt, err := New(Config{Backends: []string{node.URL}, Registry: metrics.NewRegistry(), ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt)
	defer front.Close()
	for _, path := range []string{"/admin/snapshot?node=0&nodes=1", "/admin/resolve?screen_name=alpha"} {
		resp, err := front.Client().Get(front.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s through the router: HTTP %d, want 404", path, resp.StatusCode)
		}
	}
	if n := seen.Load(); n != 0 {
		t.Errorf("the backend saw %d requests, want none", n)
	}
}

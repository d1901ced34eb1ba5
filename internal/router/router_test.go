package router

import (
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"fakeproject/internal/metrics"
)

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

// TestLookupsSkipEjectedHolders: once backend 0 is ejected, neither a
// single-owner users/lookup nor a scattered one may try it first — both
// go straight to the replica, with no failover spent on the way.
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
		ids, _ := parseIDList(r.URL.Query().Get("user_id"))
		_, _ = w.Write(fakeLookupBody(ids, func(int64) bool { return true }))
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
	if got := get("/1.1/users/lookup.json?user_id=1,2"); !strings.Contains(got, `"id":2`) {
		t.Errorf("single-owner lookup answered %q", got)
	}
	if got := get("/1.1/users/lookup.json?user_id=1,40"); !strings.Contains(got, `"id":40`) {
		t.Errorf("scattered lookup answered %q", got)
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

// TestNameSlotIsFNV1a: nameSlot hashes in place, and every name lands on
// the slot hash/fnv's 64-bit FNV-1a gave it — the bench fixture's names,
// the op streams' names, the encoder's escaping names and the empty one.
func TestNameSlotIsFNV1a(t *testing.T) {
	rt, err := New(Config{Backends: []string{"http://127.0.0.1:0"}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	names := append([]string{"", "davc", "genpop_target", "missing_name"}, encoderNames...)
	for i := 0; i < 16; i++ {
		names = append(names, fmt.Sprintf("crawl_t%02d", i), fmt.Sprintf("audit_t%02d", i), fmt.Sprintf("u%05d", i*731))
	}
	for _, name := range names {
		h := fnv.New64a()
		_, _ = h.Write([]byte(name))
		if got, want := rt.nameSlot(name), int(h.Sum64()%DefaultSlots); got != want {
			t.Errorf("nameSlot(%q) = %d, hash/fnv puts it at %d", name, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { rt.nameSlot("crawl_t07") }); n != 0 {
		t.Errorf("nameSlot allocates %.0f times", n)
	}
}

package platform

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fakeproject/internal/router"
	"fakeproject/internal/simclock"
	"fakeproject/internal/twitter"
	"fakeproject/internal/twitterapi"
	"fakeproject/internal/wal"
)

// TestSpecValidation pins the combination rules of a Spec and the error
// strings an operator sees for them (they name twitterd's flags).
func TestSpecValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec Spec
		want string // "" = valid
	}{
		{"single node", Spec{Load: "pop.gob", WALDir: "wal"}, ""},
		{"ring member", Spec{Load: "pop.gob", RingIndex: 1, RingNodes: 2}, ""},
		{"ring with WAL", Spec{Load: "pop.gob", WALDir: "wal", RingIndex: 0, RingNodes: 2},
			"-ring-index is incompatible with -wal-dir (ring members are read-serving replicas)"},
		{"ring without snapshot", Spec{RingIndex: 0, RingNodes: 2},
			"-ring-index requires -load (ring members boot from a canonical snapshot)"},
		{"index >= nodes", Spec{Load: "pop.gob", RingIndex: 2, RingNodes: 2},
			"-ring-index 2 needs -ring-nodes > it (got 2)"},
		{"nodes without index", Spec{Load: "pop.gob", RingIndex: -1, RingNodes: 2},
			"-ring-index -1 needs -ring-nodes > it (got 2)"},
		{"more nodes than slots", Spec{Load: "pop.gob", RingIndex: 0, RingNodes: router.DefaultSlots + 1},
			"-ring-nodes 65 exceeds the 64 ring slots"},
	} {
		err := tc.spec.Validate()
		if got := errString(err); got != tc.want {
			t.Errorf("%s: Validate() = %q, want %q", tc.name, got, tc.want)
		}
		if _, nerr := New(tc.spec); errString(nerr) != tc.want {
			t.Errorf("%s: New() = %v, want the Validate error", tc.name, nerr)
		}
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestStopSealsWAL is the lifecycle contract: a WAL-backed process that is
// stopped — not killed — has sealed its segment, so reopening the directory
// finds every write, no torn tail, and serves the same bytes. Fsync "off"
// keeps appended records in the writer's buffer until a flush tick or Close,
// so a stop path that skips the log's Close — a bare ListenAndServe killed
// by the signal — loses the tail and fails here.
func TestStopSealsWAL(t *testing.T) {
	dir := t.TempDir()
	clock := simclock.Real{}
	p, err := New(Spec{Addr: "127.0.0.1:0", WALDir: dir, Fsync: "off", Seed: 3, NoLimits: true})
	if err != nil {
		t.Fatal(err)
	}
	store, err := p.OpenStore(clock)
	if err != nil {
		t.Fatal(err)
	}
	p.ServeAPI(store, clock)
	addr, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}

	// Writes through the store the process serves, right up to the stop.
	target := store.MustCreateUser(twitter.UserParams{ScreenName: "sealed", CreatedAt: clock.Now().AddDate(-1, 0, 0)})
	const followers = 40
	for i := 0; i < followers; i++ {
		id := store.MustCreateUser(twitter.UserParams{CreatedAt: clock.Now().AddDate(-2, 0, 0)})
		if err := store.AddFollower(target, id, clock.Now()); err != nil {
			t.Fatal(err)
		}
	}
	paths := []string{
		"/1.1/users/show.json?screen_name=sealed",
		"/1.1/followers/ids.json?screen_name=sealed&cursor=-1",
		"/1.1/users/lookup.json?user_id=1,2,3,40",
	}
	served := make([]string, len(paths))
	for i, path := range paths {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d: %s", path, resp.StatusCode, body)
		}
		served[i] = string(body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := p.Stop(ctx); err != nil {
		t.Fatalf("stop path: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("listener still accepting after Stop")
	}

	reopened, wlog, stats, err := wal.Open(wal.Config{Dir: dir, Clock: clock, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer wlog.Close()
	if stats.TornTail {
		t.Fatalf("stopped process left a torn tail: %+v", stats)
	}
	if want := uint64(1 + 2*followers); stats.RecordsReplayed != want {
		t.Fatalf("replayed %d records, want all %d the process acknowledged", stats.RecordsReplayed, want)
	}
	again := twitterapi.NewServerLimits(twitterapi.NewService(reopened), clock, nil)
	for i, path := range paths {
		rec := httptest.NewRecorder()
		again.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Body.String() != served[i] {
			t.Errorf("GET %s after reopen:\n%s\nserved before the stop:\n%s", path, rec.Body.String(), served[i])
		}
	}
}

// ringFixture writes a snapshot whose targets sit one at the low end of
// each node's owned range in a ring of nodes, and returns its path, the
// store it was taken from and the target IDs in node order.
func ringFixture(t *testing.T, nodes int) (string, *twitter.Store, []twitter.UserID) {
	t.Helper()
	clock := simclock.NewVirtualAtEpoch()
	store := twitter.NewStore(clock, 5)
	for i := 0; i < router.DefaultSlots+8; i++ {
		store.MustCreateUser(twitter.UserParams{CreatedAt: clock.Now().AddDate(-2, 0, 0)})
	}
	ring := router.NewRing(router.DefaultSlots, nodes)
	var targets []twitter.UserID
	for node := 0; node < nodes; node++ {
		lo, _ := ring.OwnedRange(node)
		target := twitter.UserID(lo + 1) // slot (id-1) mod slots
		for f := twitter.UserID(router.DefaultSlots + 1); f <= router.DefaultSlots+4; f++ {
			if err := store.AddFollower(target, f, clock.Now()); err != nil {
				t.Fatal(err)
			}
		}
		targets = append(targets, target)
	}
	path := filepath.Join(t.TempDir(), "ring.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	err = store.WriteSnapshot(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	return path, store, targets
}

// TestRingMemberHoldsItsRanges assembles member 0 of a 3-node ring from a
// Spec and checks it installed exactly the targets of the range it owns
// and the range it replicates — not the third range, which it neither
// owns nor replicates.
func TestRingMemberHoldsItsRanges(t *testing.T) {
	snap, _, targets := ringFixture(t, 3)
	p, err := New(Spec{Load: snap, RingIndex: 0, RingNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	store, err := p.OpenStore(simclock.NewVirtualAtEpoch())
	if err != nil {
		t.Fatal(err)
	}
	// Node 0 owns range 0 and replicates its successor's, range 1.
	for node, want := range []bool{true, true, false} {
		if got := store.IsTarget(targets[node]); got != want {
			t.Errorf("target %d of range %d: IsTarget = %v, want %v", targets[node], node, got, want)
		}
	}
}

// TestSnapshotExport is the /admin/snapshot contract: with no query a
// plain node streams its whole store and a ring member the ranges it
// holds; ?node=i&nodes=N streams the held set of that ring position; a
// malformed or impossible position is refused.
func TestSnapshotExport(t *testing.T) {
	snapPath, full, _ := ringFixture(t, 4)
	get := func(p *Process, query string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		p.Mux.ServeHTTP(rec, httptest.NewRequest("GET", "/admin/snapshot"+query, nil))
		return rec
	}
	serve := func(spec Spec) (*Process, *twitter.Store) {
		t.Helper()
		p, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		clock := simclock.NewVirtualAtEpoch()
		store, err := p.OpenStore(clock)
		if err != nil {
			t.Fatal(err)
		}
		p.ServeAPI(store, clock)
		return p, store
	}
	rangeOf := func(store *twitter.Store, node, nodes int) []byte {
		t.Helper()
		ring := router.NewRing(router.DefaultSlots, nodes)
		var buf bytes.Buffer
		if err := store.WriteSnapshotRange(&buf, func(id twitter.UserID) bool { return ring.Keep(node, int64(id)) }); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	plain, _ := serve(Spec{Load: snapPath})
	var whole bytes.Buffer
	if err := full.WriteSnapshot(&whole); err != nil {
		t.Fatal(err)
	}
	if rec := get(plain, ""); rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), whole.Bytes()) {
		t.Errorf("plain node: HTTP %d, %d bytes; want WriteSnapshot's %d", rec.Code, rec.Body.Len(), whole.Len())
	}
	for _, pos := range [][2]int{{0, 1}, {1, 3}, {3, 4}, {63, 64}} {
		query := fmt.Sprintf("?node=%d&nodes=%d", pos[0], pos[1])
		want := rangeOf(full, pos[0], pos[1])
		if rec := get(plain, query); rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("%s: HTTP %d, %d bytes; want the position's %d-byte range", query, rec.Code, rec.Body.Len(), len(want))
		}
	}

	member, held := serve(Spec{Load: snapPath, RingIndex: 2, RingNodes: 4})
	if rec := get(member, ""); rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), rangeOf(held, 2, 4)) {
		t.Errorf("ring member: HTTP %d; want the ranges it holds", rec.Code)
	}

	for _, query := range []string{
		"?node=70&nodes=100", // more nodes than slots: would wrap onto node 6
		"?node=0&nodes=65",
		"?node=3&nodes=3",
		"?node=-1&nodes=2",
		"?node=x&nodes=2",
		"?node=1",
		"?nodes=2",
		"?node=&nodes=",
	} {
		if rec := get(plain, query); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", query, rec.Code)
		}
	}
}

package platform

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

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

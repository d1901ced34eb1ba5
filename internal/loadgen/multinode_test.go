package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"fakeproject/internal/metrics"
	"fakeproject/internal/platform"
	"fakeproject/internal/router"
	"fakeproject/internal/simclock"
	"fakeproject/internal/twitter"
)

// ring is a two-member partitioned deployment behind a router, each member
// range-loaded from a snapshot of the shared store taken at boot. Two
// nodes is the smallest ring where kill/rejoin is survivable: every range
// keeps one live holder.
type ring struct {
	nodes  []*ringNode
	router *router.Router
	reg    *metrics.Registry // the router's, for ejection/readmission checks
	proc   *platform.Process // the router's listener; its stop path closes router
	base   string
}

// ringNode is one member: the spec it is assembled from (its address
// pinned once bound — a rejoin must come back on it), its partial store,
// and the live process.
type ringNode struct {
	mu    sync.Mutex
	spec  platform.Spec
	store *twitter.Store
	proc  *platform.Process // nil while killed
}

// bootRing snapshots the deployment's store, boots one range-loading
// member per ring position from it, then the router in front of them. The
// ring is torn down when t ends.
func (d *deployment) bootRing(t *testing.T) *ring {
	t.Helper()
	snap := filepath.Join(t.TempDir(), "ring.snap")
	f, err := os.Create(snap)
	if err != nil {
		t.Fatal(err)
	}
	err = d.store.WriteSnapshot(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatalf("snapshotting the deployment: %v", err)
	}

	r := &ring{}
	t.Cleanup(r.close)
	var bases []string
	for i := 0; i < 2; i++ {
		n := &ringNode{spec: platform.Spec{
			Addr:      "127.0.0.1:0",
			Load:      snap,
			RingIndex: i,
			RingNodes: 2,
			NoLimits:  true,
		}}
		if err := n.start(); err != nil {
			t.Fatalf("starting node %d: %v", i, err)
		}
		r.nodes = append(r.nodes, n)
		bases = append(bases, "http://"+n.spec.Addr)
	}

	p, err := platform.New(platform.Spec{Addr: "127.0.0.1:0", Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := router.New(router.Config{
		Backends:      bases,
		Registry:      p.Reg,
		Clock:         simclock.Real{},
		ProbeInterval: 50 * time.Millisecond, // readmit quickly: the runs are short
	})
	if err != nil {
		t.Fatalf("building router: %v", err)
	}
	p.OnStop(func(context.Context) error { rt.Close(); return nil })
	p.Mux.Handle("/", rt)
	r.router, r.reg, r.proc = rt, p.Reg, p
	if r.base, err = listen(p); err != nil {
		t.Fatalf("router listener: %v", err)
	}
	return r
}

// start (re)assembles the node's process and binds it. The first call
// range-loads the store and takes an ephemeral port, which it pins; rejoins
// reuse both, or the router would never find the node again.
func (n *ringNode) start() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	clock := simclock.Real{}
	p, err := platform.New(n.spec)
	if err != nil {
		return err
	}
	if n.store == nil {
		if n.store, err = p.OpenStore(clock); err != nil {
			return err
		}
	}
	p.ServeAPI(n.store, clock)
	if n.spec.Addr, err = p.Start(); err != nil {
		return err
	}
	n.proc = p
	return nil
}

// kill drops the node hard: listener gone, in-flight connections cut —
// the closest a test process gets to SIGKILL.
func (n *ringNode) kill() {
	n.mu.Lock()
	p := n.proc
	n.proc = nil
	n.mu.Unlock()
	if p != nil {
		_ = p.Server.Close()
	}
}

// rejoin brings the node back on its original address.
func (n *ringNode) rejoin() error {
	n.mu.Lock()
	running := n.proc != nil
	n.mu.Unlock()
	if running {
		return nil
	}
	return n.start()
}

func (r *ring) close() {
	if r.proc != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = r.proc.Stop(ctx)
	}
	for _, n := range r.nodes {
		n.kill()
	}
}

// idsPage mirrors the wire shape of followers/ids for the cursor walks.
type idsPage struct {
	IDs        []int64 `json:"ids"`
	NextCursor int64   `json:"next_cursor"`
}

// walkFollowers pages through base's followers/ids for id and returns every
// follower in order. Any non-200 page is a test failure: the router's
// contract is that clients never see a backend die.
func walkFollowers(t *testing.T, client *http.Client, base string, id int64) []int64 {
	t.Helper()
	var all []int64
	cursor := int64(-1)
	for pages := 0; ; pages++ {
		if pages > 1000 {
			t.Fatal("cursor walk did not terminate")
		}
		u := fmt.Sprintf("%s/1.1/followers/ids.json?user_id=%d&cursor=%d", base, id, cursor)
		resp, err := client.Get(u)
		if err != nil {
			t.Fatalf("page %d: %v", pages, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("page %d: HTTP %d: %s", pages, resp.StatusCode, body)
		}
		var page idsPage
		if err := json.Unmarshal(body, &page); err != nil {
			t.Fatalf("page %d: %v", pages, err)
		}
		all = append(all, page.IDs...)
		if page.NextCursor == 0 {
			return all
		}
		cursor = page.NextCursor
	}
}

// counterValue reads one labelled counter/gauge sample out of a registry
// scrape, using the repo's own text parser — the same path the smoke
// script asserts through.
func counterValue(t *testing.T, reg *metrics.Registry, family string, backend int) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := metrics.ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := strconv.Itoa(backend)
	for _, f := range fams {
		if f.Name != family {
			continue
		}
		for _, s := range f.Samples {
			if s.Labels["backend"] == want {
				return s.Value
			}
		}
	}
	t.Fatalf("no sample %s{backend=%q} in scrape", family, want)
	return 0
}

func sameIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestMultiNodeChaos is the kill/rejoin integration test, driving the
// cluster by hand so every phase can be asserted: follower walks through
// the router are byte-order identical to the single-node store before,
// during and after one ring member dies; requests owned by the dead node
// keep answering 200 off the replica; the router records the ejection and
// the probe loop records the readmission.
func TestMultiNodeChaos(t *testing.T) {
	d := sharedDeployment(t)
	c := d.bootRing(t)
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()

	target := int64(d.hot)
	direct := walkFollowers(t, client, d.api, target)
	if len(direct) == 0 {
		t.Fatal("target has no followers to walk")
	}
	routed := walkFollowers(t, client, c.base, target)
	if !sameIDs(direct, routed) {
		t.Fatalf("routed walk diverged before chaos: %d ids vs %d direct", len(routed), len(direct))
	}

	// Collect follower ids whose slot node 1 owns: killing node 1 makes
	// these the interesting requests — their primary is gone, so only the
	// failover path keeps them invisible to the client.
	owners := router.NewRing(router.DefaultSlots, 2)
	var owned1 []int64
	for _, id := range direct {
		if owners.Owner(owners.Slot(id)) == 1 {
			owned1 = append(owned1, id)
		}
	}
	if len(owned1) < 3 {
		t.Fatalf("only %d followers owned by node 1; population too small for the chaos plan", len(owned1))
	}

	c.nodes[1].kill()

	// Enough node-1-owned reads to cross the ejection threshold, every one
	// still 200 off the replica.
	for i := 0; i < 5; i++ {
		u := fmt.Sprintf("%s/1.1/friends/ids.json?user_id=%d&cursor=-1", c.base, owned1[i%len(owned1)])
		resp, err := client.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("kill window leaked to the client: HTTP %d: %s", resp.StatusCode, body)
		}
	}
	if got := c.router.Healthy(); got != 1 {
		t.Fatalf("Healthy() = %d after the kill window, want the dead node ejected", got)
	}
	if got := counterValue(t, c.reg, "router_ejections_total", 1); got < 1 {
		t.Fatalf("router_ejections_total{backend=1} = %v, want >= 1", got)
	}
	if got := counterValue(t, c.reg, "router_backend_healthy", 1); got != 0 {
		t.Fatalf("router_backend_healthy{backend=1} = %v while dead", got)
	}

	// Mid-kill cursor walk: no duplicate, no skipped follower id.
	if mid := walkFollowers(t, client, c.base, target); !sameIDs(direct, mid) {
		t.Fatalf("mid-kill walk diverged: %d ids vs %d direct", len(mid), len(direct))
	}

	if err := c.nodes[1].rejoin(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.router.Healthy() != 2 {
		if time.Now().After(deadline) {
			t.Fatal("probe loop never readmitted the rejoined node")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := counterValue(t, c.reg, "router_readmissions_total", 1); got < 1 {
		t.Fatalf("router_readmissions_total{backend=1} = %v, want >= 1", got)
	}
	if got := counterValue(t, c.reg, "router_backend_healthy", 1); got != 1 {
		t.Fatalf("router_backend_healthy{backend=1} = %v after readmission", got)
	}

	if after := walkFollowers(t, client, c.base, target); !sameIDs(direct, after) {
		t.Fatalf("post-rejoin walk diverged: %d ids vs %d direct", len(after), len(direct))
	}
}

// TestMultiNodeMixRuns drives the multinode mix through the router the
// way cmd/loadd does, while a chaos goroutine kills node 1 a third of the
// way in and rejoins it at two thirds. Node 1 rather than 0 so the
// deterministic "first healthy backend" of unrouted requests stays up. The
// run must finish with zero client-visible non-429 errors: every attempt
// on the dead node fails over to the range's replica holder. Long enough
// that the dead window sees real traffic, short enough for the suite.
func TestMultiNodeMixRuns(t *testing.T) {
	d := sharedDeployment(t)
	c := d.bootRing(t)
	h := d.harness(t, c.base, "")
	const run = 1200 * time.Millisecond
	chaos := make(chan error, 1)
	go func() {
		time.Sleep(run / 3)
		c.nodes[1].kill()
		time.Sleep(run / 3)
		chaos <- c.nodes[1].rejoin()
	}()
	res, err := h.RunMix(context.Background(), MixMultiNode, Pattern{Rate: 250}, run, 64)
	if chaosErr := <-chaos; chaosErr != nil {
		t.Fatalf("rejoin: %v", chaosErr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCount() == 0 {
		t.Fatal("multinode mix completed zero requests")
	}
	if got := res.TotalErrors(); got != 0 {
		for _, e := range res.Endpoints {
			if e.Errors > 0 {
				t.Errorf("%s: %d errors (samples: %v)", e.Endpoint, e.Errors, e.ErrorSamples)
			}
		}
		t.Fatalf("chaos leaked %d non-429 errors to clients", got)
	}
}

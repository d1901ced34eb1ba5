package loadgen

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

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
	nodes []*ringNode
	proc  *platform.Process // the router's listener; its stop path closes router
	base  string
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
		n := &ringNode{spec: platform.Spec{Addr: "127.0.0.1:0", Load: snap, RingIndex: i, RingNodes: 2, NoLimits: true}}
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
	r.proc = p
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
		chaos <- c.nodes[1].start() // rejoin on the pinned address
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

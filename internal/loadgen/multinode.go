package loadgen

import (
	"context"
	"fmt"
	"math/rand"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"fakeproject/internal/metrics"
	"fakeproject/internal/platform"
	"fakeproject/internal/router"
	"fakeproject/internal/simclock"
	"fakeproject/internal/twitter"
)

// The multinode mix boots a partitioned deployment inside the harness — a
// ring of twitterd-equivalent nodes, each range-loaded from a snapshot of
// the harness population, behind a real routerd-equivalent router on its
// own TCP port — and drives crawl traffic through the router while a chaos
// plan kills one node a third of the way in and rejoins it at two thirds.
// The run's contract is the router's: zero client-visible errors that are
// not 429s, because every killed-node attempt fails over to the range's
// replica holder and the probe loop readmits the node once it is back.

// multinodeNodes is the ring size the mix boots. Two nodes is the smallest
// ring where kill/rejoin is survivable (every range keeps one live holder).
const multinodeNodes = 2

// multiCluster is the in-harness multi-node deployment.
type multiCluster struct {
	nodes  []*clusterNode
	router *router.Router
	proc   *platform.Process // the router's listener; its stop path closes router
	base   string
	reg    *metrics.Registry // the router's registry, for chaos assertions
}

// clusterNode is one ring member: the spec it is assembled from (its
// address pinned once bound — a rejoin must come back on it), its partial
// store, and the live process.
type clusterNode struct {
	mu    sync.Mutex
	spec  platform.Spec
	store *twitter.Store
	proc  *platform.Process // nil while killed
}

// newMultiCluster snapshots the harness store, boots one range-loading ring
// member per node from it, then the router in front of them.
func (h *Harness) newMultiCluster(nodes int) (*multiCluster, error) {
	if h.store == nil {
		return nil, fmt.Errorf("multinode needs an in-process platform to snapshot")
	}
	snap, err := os.CreateTemp("", "loadgen-ring-*.snap")
	if err != nil {
		return nil, fmt.Errorf("snapshotting harness population: %w", err)
	}
	defer os.Remove(snap.Name())
	err = h.store.WriteSnapshot(snap)
	if cerr := snap.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("snapshotting harness population: %w", err)
	}

	c := &multiCluster{reg: metrics.NewRegistry()}
	fail := func(err error) (*multiCluster, error) {
		c.close()
		return nil, err
	}
	bases := make([]string, nodes)
	for i := range bases {
		cn := &clusterNode{spec: platform.Spec{
			Addr:      "127.0.0.1:0",
			Load:      snap.Name(),
			RingIndex: i,
			RingNodes: nodes,
			RingSlots: router.DefaultSlots,
			NoLimits:  true,
		}}
		if err := cn.start(); err != nil {
			return fail(fmt.Errorf("starting node %d: %w", i, err))
		}
		c.nodes = append(c.nodes, cn)
		bases[i] = "http://" + cn.spec.Addr
	}

	p, err := platform.New(platform.Spec{Addr: "127.0.0.1:0", Registry: c.reg})
	if err != nil {
		return fail(err)
	}
	rt, err := router.New(router.Config{
		Backends:      bases,
		Registry:      p.Reg,
		Clock:         simclock.Real{},
		ProbeInterval: 50 * time.Millisecond, // readmit quickly: the run is short
	})
	if err != nil {
		return fail(fmt.Errorf("building router: %w", err))
	}
	p.OnStop(func(context.Context) error { rt.Close(); return nil })
	p.Mux.Handle("/", rt)
	c.router, c.proc = rt, p
	if c.base, err = start(p); err != nil {
		return fail(fmt.Errorf("router listener: %w", err))
	}
	return c, nil
}

// start (re)assembles the node's process and binds it. The first call
// range-loads the store and takes an ephemeral port, which it pins; rejoins
// reuse both, or the router would never find the node again.
func (n *clusterNode) start() error {
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
// the closest an in-process harness gets to SIGKILL.
func (n *clusterNode) kill() {
	n.mu.Lock()
	p := n.proc
	n.proc = nil
	n.mu.Unlock()
	if p != nil {
		_ = p.Server.Close()
	}
}

// rejoin brings the node back on its original address.
func (n *clusterNode) rejoin() error {
	n.mu.Lock()
	running := n.proc != nil
	n.mu.Unlock()
	if running {
		return nil
	}
	return n.start()
}

func (c *multiCluster) close() {
	if c.proc != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = c.proc.Stop(ctx)
	}
	for _, n := range c.nodes {
		n.kill()
	}
}

// chaosPlan kills node 1 a third of the way through the run and rejoins it
// at two thirds, then lets the run finish. Node 1 rather than 0 so the
// deterministic "first healthy backend" of unrouted requests stays up.
func (c *multiCluster) chaosPlan(ctx context.Context, d time.Duration) error {
	victim := c.nodes[1%len(c.nodes)]
	if !sleepCtx(ctx, d/3) {
		return nil
	}
	victim.kill()
	if !sleepCtx(ctx, d/3) {
		return nil
	}
	return victim.rejoin()
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// --- the mix ---

// MixMultiNode is the partitioned-deployment mix (see the package comment
// at the top of this file).
const MixMultiNode = "multinode"

// multiMix drives the cluster through its router: follower page walks and
// friends first pages (ownership-routed, the failover path under chaos),
// plus scattered users/lookup batches, spread users/show and routed
// timelines. Strictly read-only: the node stores are snapshots, and churn
// would need lockstep mutation of every ring member.
type multiMix struct {
	h     *Harness // APIBase rewritten to the cluster's router
	crawl *crawlMix
	rnd   *rand.Rand
}

func newMultiMix(h *Harness, rnd *rand.Rand, c *multiCluster) *multiMix {
	ch := *h
	ch.APIBase = c.base
	cluster := &ch
	return &multiMix{
		h:     cluster,
		crawl: newCrawlMix(cluster, MixMultiNode, rnd, 32, h.Targets),
		rnd:   rnd,
	}
}

func (m *multiMix) Name() string { return MixMultiNode }

func (m *multiMix) Next(i int) Op {
	switch i % 8 {
	case 5:
		// A scattered users/lookup: 20 random IDs span both ring ranges
		// with near certainty, so the batch exercises split + merge.
		ids := make([]string, 20)
		for j := range ids {
			ids[j] = strconv.FormatInt(int64(m.h.randomUserID(m.rnd)), 10)
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
			strconv.FormatInt(int64(id), 10) + "&count=200"
		token := fmt.Sprintf("multi-tl%d", i%8)
		return Op{Endpoint: "statuses/user_timeline", Do: func(ctx context.Context) error {
			_, err := m.h.get(ctx, u, token)
			return err
		}}
	default:
		return m.crawl.Next(i)
	}
}

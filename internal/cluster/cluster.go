package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"abg/internal/alloc"
	"abg/internal/fault"
	"abg/internal/obs"
	"abg/internal/obs/promexport"
	"abg/internal/parallel"
	"abg/internal/server"
)

// Config assembles a cluster: N engine shards built from one shard template
// plus the cluster-level routing policy. The cluster allocator is dynamic
// equi-partitioning, the policy jobs are allotted with.
type Config struct {
	// Addr is the front door's listen address.
	Addr string
	// Shards is the number of engine shards (≥ 1).
	Shards int
	// Shard is the template every shard is built from. Addr, Bus, Metrics,
	// Capacity and FollowURL are owned by the cluster and must be zero; P is
	// the *total* machine the cluster partitions; JournalDir, if set, gains
	// a shard-<k> subdirectory per shard; EventRing and EventRingBytes also
	// size the front door's merged replay ring.
	Shard server.Config
	// Router picks the shard for each submission. Default NewHashRing(Shards).
	Router Router
	// Metrics receives the cluster-level abgd_cluster_* families and the
	// front door's HTTP metrics; a private registry is created when nil.
	// Shard registries stay private per shard and are rendered at /metrics
	// under a shard label.
	Metrics *obs.Registry
}

// shard is one engine shard plus its cluster-side bookkeeping.
type shard struct {
	srv *server.Server
	bus *obs.Bus
	tap *shardTap

	routed atomic.Int64 // submissions (jobs) routed here, this process

	// Round telemetry, written by the driver, read by /api/v1/shards.
	mu     sync.Mutex
	desire int
	share  int
}

func (sh *shard) roundStats() (desire, share int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.desire, sh.share
}

// Cluster is N shards behind one front door.
type Cluster struct {
	cfg    Config
	shards []*shard
	router Router
	hub    *server.EventHub
	log    *slog.Logger

	routeMu sync.Mutex
	keys    map[string]int // idempotency key → shard (routing affinity)

	lastShares []int // driver-owned
	rebalances atomic.Int64

	draining  atomic.Bool
	drainOnce sync.Once
	finalErr  error // first shard failure, set before drained closes
	wake      chan struct{}
	drained   chan struct{}

	metrics *clusterMetrics
	started time.Time
	ln      net.Listener
	hsrv    *http.Server
}

// New builds the shards and the front door. Each shard is a complete abgd
// server — journal, SSE hub, metrics, recovery — that is never Start()ed;
// the cluster drives it through the server package's external-drive API.
func New(cfg Config) (*Cluster, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("cluster: needs at least 1 shard, got %d", cfg.Shards)
	}
	if cfg.Shard.Addr != "" || cfg.Shard.Bus != nil || cfg.Shard.Metrics != nil ||
		cfg.Shard.Capacity != nil || cfg.Shard.FollowURL != "" {
		return nil, fmt.Errorf("cluster: shard template must leave Addr, Bus, Metrics, Capacity and FollowURL unset")
	}
	if cfg.Router == nil {
		cfg.Router = NewHashRing(cfg.Shards)
	}
	plan, err := fault.ParseSpec(cfg.Shard.FaultSpec, cfg.Shard.P)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	if cfg.Shard.JournalDir != "" {
		// Booting N shards over a journal tree written by more than N would
		// silently strand the extra shards' acked jobs.
		extra := filepath.Join(cfg.Shard.JournalDir, shardDirName(cfg.Shards))
		if _, err := os.Stat(extra); err == nil {
			return nil, fmt.Errorf("cluster: journal dir %s holds more shards than -cluster %d; boot with the original shard count",
				cfg.Shard.JournalDir, cfg.Shards)
		}
	}
	c := &Cluster{
		cfg:     cfg,
		router:  cfg.Router,
		hub:     server.NewEventHub(cfg.Shards, cfg.Shard.EventRing, cfg.Shard.EventRingBytes),
		log:     obs.Component("cluster"),
		keys:    make(map[string]int),
		wake:    make(chan struct{}, 1),
		drained: make(chan struct{}),
		started: time.Now(),
	}
	c.metrics = newClusterMetrics(cfg.Metrics, cfg.Shards)
	c.metrics.shards.Set(int64(cfg.Shards))
	for k := 0; k < cfg.Shards; k++ {
		scfg := cfg.Shard
		scfg.Bus = obs.NewBus()
		if cfg.Shards > 1 {
			// Each shard's capacity is the cluster-assigned share, clamped by
			// the fault plan's machine-wide availability. A one-shard cluster
			// installs nothing: the shard owns the whole machine, and its
			// journal stays byte-identical to a plain daemon's.
			scfg.Capacity = server.NewShareTable(cfg.Shard.P, plan.Capacity)
		}
		if scfg.JournalDir != "" {
			scfg.JournalDir = filepath.Join(scfg.JournalDir, shardDirName(k))
		}
		srv, err := server.New(scfg)
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d: %w", k, err)
		}
		sh := &shard{srv: srv, bus: scfg.Bus}
		// The tap attaches after New, so recovery's replayed events — already
		// renumbered exactly by the shard's own hub — are not re-merged; the
		// merged stream resumes from the shard's recovered position. From
		// here the front door renders the shard's events and the shard's hub
		// only numbers them.
		srv.RelayEvents()
		sh.tap = newShardTap(k, cfg.Shards)
		c.hub.SetSeq(k, srv.SSESeq())
		scfg.Bus.Subscribe(sh.tap)
		c.shards = append(c.shards, sh)
	}
	// Routing affinity survives a restart: re-pin every recovered
	// idempotency key to the shard that journaled it.
	for k, sh := range c.shards {
		for key := range sh.srv.IdemKeys() {
			c.keys[key] = k
		}
	}
	c.lastShares = make([]int, cfg.Shards)
	for k := range c.lastShares {
		c.lastShares[k] = -1 // first assignment always counts as a rebalance
	}
	return c, nil
}

func shardDirName(k int) string { return "shard-" + strconv.Itoa(k) }

// Start binds the front door and launches the driver goroutine: the
// daemon's quantum clock (server.Clock) runs one round per boundary until
// the cluster drains or a shard wedges — a wedged shard cannot make
// progress, so the healthy ones drain and the cluster shuts down instead of
// serving a partially dead cluster. Cancelling ctx initiates a graceful
// drain.
func (c *Cluster) Start(ctx context.Context) error {
	ln, err := net.Listen("tcp", c.cfg.Addr)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	c.ln = ln
	c.started = time.Now()
	c.hsrv = server.NewHTTPServer(c.mux())
	go func() {
		server.Clock{
			Mode: c.cfg.Shard.Clock, Tick: c.cfg.Shard.Tick, Wake: c.wake,
			Stop:    func() bool { return c.draining.Load() || c.anyFatal() != nil },
			HasWork: c.anyNeedsSteps, Step: c.round, Drain: c.Drain,
		}.Run(ctx)
		c.drain()
		c.log.Info("cluster drain complete", "shards", c.cfg.Shards)
	}()
	go func() {
		if err := c.hsrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			c.log.Error("cluster http server failed", "err", err)
		}
	}()
	c.log.Info("abgd cluster listening",
		"addr", ln.Addr().String(), "shards", c.cfg.Shards,
		"P", c.cfg.Shard.P, "router", c.router.Name(),
		"clock", string(c.cfg.Shard.Clock))
	return nil
}

// Addr returns the bound listen address (useful with ":0").
func (c *Cluster) Addr() string {
	if c.ln == nil {
		return c.cfg.Addr
	}
	return c.ln.Addr().String()
}

// drain runs the daemon's drain sequence (server.DrainShards) over the
// shards, paced by the merged stream's readers, then closes that stream
// and releases Wait. Runs on the driver goroutine.
func (c *Cluster) drain() {
	c.Drain() // a wedged shard ends the clock's loop without one
	srvs := make([]*server.Server, len(c.shards))
	for k, sh := range c.shards {
		srvs[k] = sh.srv
	}
	for k, err := range server.DrainShards(srvs, c.hub, func() { c.round(false) }) {
		if err != nil && c.finalErr == nil {
			c.finalErr = fmt.Errorf("shard %d: %w", k, err)
		}
	}
	c.hub.Close()
	close(c.drained)
}

// round runs one cluster quantum: collect each shard's aggregate desire,
// re-partition the machine with the cluster allocator, pin the shares, step
// every shard concurrently, then flush the shards' event taps into the
// merged stream serially in shard order (the barrier between stepping and
// flushing is what makes the merge order deterministic at any worker count).
func (c *Cluster) round(idleOK bool) {
	n := len(c.shards)
	if n > 1 {
		desires := make([]int, n)
		for k, sh := range c.shards {
			desires[k] = sh.srv.AggregateDesire()
		}
		shares := alloc.DynamicEquiPartition{}.Allot(desires, c.cfg.Shard.P)
		for k, sh := range c.shards {
			sh.srv.SetShare(shares[k])
			sh.mu.Lock()
			sh.desire, sh.share = desires[k], shares[k]
			sh.mu.Unlock()
		}
		if !slices.Equal(shares, c.lastShares) {
			c.rebalances.Add(1)
			c.metrics.rebalances.Inc()
			copy(c.lastShares, shares)
		}
	}
	parallel.ForEach(n, func(k int) {
		c.shards[k].srv.StepExternal(idleOK)
	})
	for _, sh := range c.shards {
		sh.tap.flush(c.hub)
	}
}

// anyNeedsSteps reports whether any shard still has steppable work.
func (c *Cluster) anyNeedsSteps() bool {
	for _, sh := range c.shards {
		if sh.srv.NeedsSteps() {
			return true
		}
	}
	return false
}

// anyFatal returns the first shard fatal error, if any.
func (c *Cluster) anyFatal() error {
	for k, sh := range c.shards {
		if err := sh.srv.Fatal(); err != nil {
			return fmt.Errorf("shard %d: %w", k, err)
		}
	}
	return nil
}

// Drain initiates a graceful cluster drain. Admission closes on every shard
// first (each journals the drain command, so restarted shards finish
// draining instead of reopening admission), and only then on the front
// door, whose flag lets the clock leave its loop: no shard can accept a job
// after the drain sequence has closed its engine's admission. Idempotent.
func (c *Cluster) Drain() {
	c.drainOnce.Do(func() {
		c.log.Info("cluster drain initiated")
		for _, sh := range c.shards {
			sh.srv.Drain()
		}
		c.draining.Store(true)
	})
	c.notify()
}

// Wait blocks until the cluster has fully drained, then shuts the front
// door down and reports the first shard failure, if any.
func (c *Cluster) Wait() error {
	server.AwaitDrained(c.drained, c.hsrv)
	return c.finalErr
}

// notify wakes the driver loop (non-blocking).
func (c *Cluster) notify() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// clusterMetrics is the cluster-level registry content: topology, routing,
// and allocation families, labelled per shard where that makes sense.
type clusterMetrics struct {
	reg        *obs.Registry
	http       *server.HTTPMetrics // the front door's own traffic
	shards     *obs.Gauge
	rebalances *obs.Counter
	routed     []*obs.Counter // abgd_cluster_routed_jobs_total{shard}
	queueDepth []*obs.Gauge   // abgd_cluster_queue_depth{shard}
	desire     []*obs.Gauge   // abgd_cluster_shard_desire{shard}
	share      []*obs.Gauge   // abgd_cluster_shard_share{shard}
	load       []*obs.Gauge   // abgd_cluster_shard_load{shard}
}

func newClusterMetrics(reg *obs.Registry, shards int) *clusterMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &clusterMetrics{
		reg:        reg,
		http:       server.NewHTTPMetrics(reg),
		shards:     reg.Gauge("abgd_cluster_shards"),
		rebalances: reg.Counter("abgd_cluster_rebalances_total"),
	}
	for k := 0; k < shards; k++ {
		label := strconv.Itoa(k)
		m.routed = append(m.routed, reg.Counter(promexport.Name("abgd_cluster_routed_jobs_total", "shard", label)))
		m.queueDepth = append(m.queueDepth, reg.Gauge(promexport.Name("abgd_cluster_queue_depth", "shard", label)))
		m.desire = append(m.desire, reg.Gauge(promexport.Name("abgd_cluster_shard_desire", "shard", label)))
		m.share = append(m.share, reg.Gauge(promexport.Name("abgd_cluster_shard_share", "shard", label)))
		m.load = append(m.load, reg.Gauge(promexport.Name("abgd_cluster_shard_load", "shard", label)))
	}
	return m
}

// sample refreshes the scrape-sampled cluster gauges.
func (c *Cluster) sample() {
	for k, sh := range c.shards {
		desire, share := sh.roundStats()
		c.metrics.queueDepth[k].Set(int64(sh.srv.QueueDepth()))
		c.metrics.desire[k].Set(int64(desire))
		c.metrics.share[k].Set(int64(share))
		c.metrics.load[k].Set(int64(sh.srv.Load()))
	}
}

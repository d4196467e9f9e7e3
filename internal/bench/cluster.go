// Package bench is the experiment harness: it assembles in-process clusters
// of the four systems under test (PVFS2-like, NFS3-like, original Redbud,
// Redbud with delayed commit ± space delegation), runs the paper's
// workloads on them, and regenerates every table and figure of the
// evaluation section (Figures 3-7) plus the ablation studies DESIGN.md
// calls out.
package bench

import (
	"fmt"
	"sync"
	"time"

	"redbud/internal/alloc"
	"redbud/internal/blockdev"
	"redbud/internal/client"
	"redbud/internal/clock"
	"redbud/internal/fsapi"
	"redbud/internal/iotrace"
	"redbud/internal/mds"
	"redbud/internal/meta"
	"redbud/internal/netsim"
	"redbud/internal/nfs3"
	"redbud/internal/obs"
	"redbud/internal/obs/agg"
	"redbud/internal/pvfs2"
	"redbud/internal/rpc"
	"redbud/internal/workload"
)

// System identifies one configuration under test.
type System int

// Systems of Figure 3 (and the Redbud configurations of Figures 4-7).
const (
	SysPVFS2 System = iota
	SysNFS3
	SysRedbud     // original Redbud: synchronous commit
	SysRedbudDC   // + delayed commit
	SysRedbudDCSD // + delayed commit + space delegation
)

func (s System) String() string {
	switch s {
	case SysPVFS2:
		return "pvfs2"
	case SysNFS3:
		return "nfs3"
	case SysRedbud:
		return "redbud"
	case SysRedbudDC:
		return "redbud+dc"
	case SysRedbudDCSD:
		return "redbud+dc+sd"
	}
	return "?"
}

// Options sets the cluster scale and fidelity knobs shared by all figures.
type Options struct {
	// Clients is the number of client nodes (the paper uses 7).
	Clients int
	// Scale compresses virtual time for wall-clock speed: 0.02 runs the
	// cluster 50x faster than real time while keeping every relative
	// latency intact. Reported numbers are always virtual-time.
	Scale float64
	// SizeFactor scales workload op counts in (0, 1]; bench targets use
	// small factors, `redbud-bench` uses 1.
	SizeFactor float64
	// DataDevices is the number of disks in the shared FC array.
	DataDevices int
	// DeviceSize is the capacity of each disk.
	DeviceSize int64
	// Disk is the service-time model of each disk.
	Disk blockdev.DiskModel
	// Net is the metadata-Ethernet link model.
	Net netsim.LinkConfig
	// MDSDaemons is the metadata server daemon-thread count.
	MDSDaemons int
	// MDSOpCost is the CPU cost of one metadata op at the server.
	MDSOpCost time.Duration
	// MDSFrameCost is the per-RPC-frame overhead at the server; the
	// saving compound RPCs buy (Figure 7).
	MDSFrameCost time.Duration
	// CompoundDegree pins the Redbud compound degree (0 = adaptive).
	CompoundDegree int
	// DelegationChunk is the space-delegation unit (paper: 16 MiB).
	DelegationChunk int64
	// Seed drives all randomness.
	Seed int64
	// Trace attaches a blktrace recorder to the data devices.
	Trace bool
	// SpanTrace attaches a commit-lifecycle span tracer to every layer of a
	// Redbud cluster (devices, network, MDS, store, clients).
	SpanTrace bool
	// SpanTraceCap bounds the span ring (0 = obs.DefaultTraceCap).
	SpanTraceCap int

	// ReadAhead enables client sequential prefetch with this window.
	ReadAhead int64

	// Ablation knobs, applied to Redbud delayed-commit clients.
	FixedCommitThreads int
	SpaceNoPrefetch    bool
	CommitEvenIfClean  bool
	DisableMerge       bool

	// Autoscale switches Redbud clients from the paper's static
	// commit-thread formula to the autoscaler v2 control loop.
	Autoscale bool
	// EarlyVisibility lets Redbud clients read peers' durable-but-
	// uncommitted extents through the layout-v2 intent path instead of
	// stalling conflict reads until the commit lands.
	EarlyVisibility bool
	// JournalMaxDelay enables journal group-commit v2 with this adaptive
	// deadline bound (0 keeps v1 flush-as-soon-as-the-leader-runs).
	JournalMaxDelay time.Duration

	// Shards partitions the metadata namespace across this many MDS
	// instances (<= 1 keeps the classic single MDS). Each shard runs its
	// own daemon pool, store and journal device, and splits the shared
	// array's allocation groups with the others; clients route per inode
	// via the hash partition. Incompatible with space delegation (the
	// client refuses the combination).
	Shards int
}

// DefaultOptions mirrors the paper's testbed at simulation scale.
func DefaultOptions() Options {
	return Options{
		Clients:         7,
		Scale:           0.02,
		SizeFactor:      1,
		DataDevices:     4,
		DeviceSize:      16 << 30,
		Disk:            blockdev.DefaultHDD(),
		Net:             netsim.GigabitEthernet(),
		MDSDaemons:      8,
		MDSOpCost:       15 * time.Microsecond,
		MDSFrameCost:    35 * time.Microsecond,
		DelegationChunk: 16 << 20,
		Seed:            1,
	}
}

// TestOptions shrinks everything for fast test/bench runs.
func TestOptions() Options {
	o := DefaultOptions()
	o.Clients = 3
	o.Scale = 0.002
	o.SizeFactor = 0.1
	return o
}

// Cluster is one assembled system: mounts, devices, metadata authorities.
type Cluster struct {
	System  System
	Clock   clock.Clock
	Mounts  []fsapi.FileSystem
	Devices []*blockdev.Device
	Rec     *iotrace.Recorder

	// Redbud-only handles (nil otherwise). MDS / Store / MetaDev / AGTotal
	// are shard 0's (the whole cluster when Options.Shards <= 1); the
	// slices hold every shard of a sharded namespace in shard order.
	Redbud   []*client.Client
	MDS      *mds.Server
	Store    *meta.Store
	Net      *netsim.Network
	MetaDev  *blockdev.Device
	AGTotal  int64 // capacity shard 0's AG set spans (fsck identity)
	MDSs     []*mds.Server
	Stores   []*meta.Store
	MetaDevs []*blockdev.Device
	AGTotals []int64

	// Tracer is the commit-lifecycle span ring (nil unless Options.SpanTrace;
	// Redbud systems only). Registry names every counter of a Redbud cluster
	// and is always built.
	Tracer   *obs.Tracer
	Registry *obs.Registry

	// ShardRegs holds one registry per MDS shard, carrying that shard's
	// server + store + rpc metrics. Registry exports only shard 0's MDS (the
	// fixed metric names would collide); the per-shard registries cover the
	// rest, and Collector aggregates them — plus every client — into the
	// shard-tagged cluster view (Redbud systems only).
	ShardRegs []*obs.Registry
	Collector *agg.Collector

	closers []func()
}

// Close tears the cluster down in reverse construction order.
func (c *Cluster) Close() {
	for _, m := range c.Mounts {
		_ = m.Close()
	}
	for i := len(c.closers) - 1; i >= 0; i-- {
		c.closers[i]()
	}
}

// Drain flushes pending delayed commits on every Redbud mount.
func (c *Cluster) Drain() {
	for _, r := range c.Redbud {
		_ = r.Drain()
	}
}

// DeviceStats aggregates the data-device counters.
func (c *Cluster) DeviceStats() blockdev.Stats {
	var total blockdev.Stats
	for _, d := range c.Devices {
		s := d.Stats()
		total.Submitted += s.Submitted
		total.Dispatched += s.Dispatched
		total.Merged += s.Merged
		total.Seeks += s.Seeks
		total.SeekBytes += s.SeekBytes
		total.BytesRead += s.BytesRead
		total.BytesWrite += s.BytesWrite
		total.BusyTime += s.BusyTime
	}
	return total
}

// RPCs sums client-side RPC counts (network-traffic metric).
func (c *Cluster) RPCs() int64 {
	var total int64
	for _, m := range c.Mounts {
		switch fs := m.(type) {
		case *client.Client:
			total += fs.Stats().RPCs
		case *nfs3.Client:
			total += fs.RPCs()
		case *pvfs2.Client:
			total += fs.RPCs()
		}
	}
	return total
}

// Build assembles a cluster of the given system.
func Build(sys System, opt Options) *Cluster {
	switch sys {
	case SysPVFS2:
		return buildPVFS2(opt)
	case SysNFS3:
		return buildNFS3(opt)
	default:
		return buildRedbud(sys, opt)
	}
}

// newDevices builds the shared disk array, optionally traced.
func newDevices(opt Options, clk clock.Clock, rec *iotrace.Recorder, tr *obs.Tracer) []*blockdev.Device {
	devs := make([]*blockdev.Device, 0, opt.DataDevices)
	for i := 0; i < opt.DataDevices; i++ {
		cfg := blockdev.Config{
			ID:           i,
			Size:         opt.DeviceSize,
			Model:        opt.Disk,
			Clock:        clk,
			DisableMerge: opt.DisableMerge,
			Tracer:       tr,
		}
		if rec != nil {
			cfg.Trace = rec.Record
		}
		devs = append(devs, blockdev.New(cfg))
	}
	return devs
}

// buildRedbud assembles MDS + shared array + Redbud clients in the given
// commit mode.
func buildRedbud(sys System, opt Options) *Cluster {
	shards := opt.Shards
	if shards <= 0 {
		shards = 1
	}
	if shards > 1 && sys == SysRedbudDCSD {
		// A delegated writer allocates from a private space pool with no
		// shard affinity; the client refuses the combination, so fail the
		// build loudly instead of handing out a cluster that panics later.
		panic("bench: space delegation is incompatible with a sharded namespace")
	}
	clk := clock.Real(opt.Scale)
	c := &Cluster{System: sys, Clock: clk}
	if opt.Trace {
		c.Rec = iotrace.NewRecorder()
	}
	if opt.SpanTrace {
		c.Tracer = obs.NewTracer(opt.SpanTraceCap)
	}
	c.Registry = obs.NewRegistry()
	c.Devices = newDevices(opt, clk, c.Rec, c.Tracer)
	for _, d := range c.Devices {
		dev := d
		c.closers = append(c.closers, dev.Close)
	}

	// Each shard gets its own AG set over the shared array: with one shard
	// the AGs partition each device in halves (the classic layout); with
	// more, the shards split every device into disjoint slices, so extent
	// spaces never overlap across metadata authorities.
	mkAGs := func(shard int) *alloc.AGSet {
		var groups []*alloc.Group
		for _, d := range c.Devices {
			if shards == 1 {
				half := d.Size() / 2
				groups = append(groups,
					alloc.NewGroup(d.ID(), 0, half),
					alloc.NewGroup(d.ID(), half, d.Size()))
				continue
			}
			per := d.Size() / int64(shards)
			start := int64(shard) * per
			end := start + per
			if shard == shards-1 {
				end = d.Size()
			}
			groups = append(groups, alloc.NewGroup(d.ID(), start, end))
		}
		return alloc.NewAGSet(alloc.RoundRobin, groups...)
	}

	hostOf := func(shard int) string {
		if shards == 1 {
			return "mds"
		}
		return fmt.Sprintf("mds%d", shard)
	}

	c.Net = netsim.NewNetwork(clk)
	c.Net.SetTracer(c.Tracer)

	for i := 0; i < shards; i++ {
		// Metadata device (journal) on its own disk per shard.
		metaDev := blockdev.New(blockdev.Config{ID: 1000 + i, Size: 4 << 30, Model: opt.Disk, Clock: clk})
		c.closers = append(c.closers, metaDev.Close)
		c.MetaDevs = append(c.MetaDevs, metaDev)
		ags := mkAGs(i)
		c.AGTotals = append(c.AGTotals, meta.TotalSpace(ags))
		journal := meta.NewJournal(metaDev, 0, 2<<30)
		if opt.JournalMaxDelay > 0 {
			journal.SetBatchPolicy(meta.BatchPolicy{MaxDelay: opt.JournalMaxDelay, Clock: clk})
		}
		store := meta.NewStore(meta.Config{
			AGs: ags, Journal: journal, Clock: clk, Tracer: c.Tracer,
			Shard: i, ShardCount: shards,
		})
		c.Stores = append(c.Stores, store)

		srv := mds.New(mds.Config{
			Store:               store,
			Clock:               clk,
			Daemons:             opt.MDSDaemons,
			OpCost:              opt.MDSOpCost,
			FrameCost:           opt.MDSFrameCost,
			ContentionPerDaemon: 0.05,
			ShardIndex:          uint32(i),
			ShardCount:          uint32(shards),
			Tracer:              c.Tracer,
		})
		c.MDSs = append(c.MDSs, srv)
		c.closers = append(c.closers, srv.Close)

		c.Net.AddHost(hostOf(i), opt.Net)
		lis, err := c.Net.Listen(hostOf(i))
		if err != nil {
			panic(err)
		}
		go srv.Serve(lis)
		c.closers = append(c.closers, func() { lis.Close() })
	}
	c.MDS = c.MDSs[0]
	c.Store = c.Stores[0]
	c.MetaDev = c.MetaDevs[0]
	c.AGTotal = c.AGTotals[0]

	devMap := make(map[uint32]client.BlockDevice, len(c.Devices))
	for _, d := range c.Devices {
		devMap[uint32(d.ID())] = d
	}

	mode := client.SyncCommit
	if sys != SysRedbud {
		mode = client.DelayedCommit
	}
	deleg := int64(0)
	if sys == SysRedbudDCSD {
		deleg = opt.DelegationChunk
	}
	for i := 0; i < opt.Clients; i++ {
		host := fmt.Sprintf("client-%d", i)
		c.Net.AddHost(host, opt.Net)
		net := c.Net
		ccfg := client.Config{
			Name:               host,
			Devices:            devMap,
			Clock:              clk,
			Mode:               mode,
			CompoundDegree:     opt.CompoundDegree,
			DelegationChunk:    deleg,
			NetCongestion:      func() time.Duration { return net.CongestionWait(hostOf(0)) },
			PoolInterval:       2 * time.Millisecond,
			ReadAhead:          opt.ReadAhead,
			FixedCommitThreads: opt.FixedCommitThreads,
			SpaceNoPrefetch:    opt.SpaceNoPrefetch,
			CommitEvenIfClean:  opt.CommitEvenIfClean,
			Autoscale:          opt.Autoscale,
			EarlyVisibility:    opt.EarlyVisibility,
			Tracer:             c.Tracer,
		}
		if shards == 1 {
			conn, err := c.Net.Dial(host, "mds")
			if err != nil {
				panic(err)
			}
			ccfg.MDS = rpc.NewClient(conn, clk)
		} else {
			conns := make([]*rpc.Client, shards)
			for s := 0; s < shards; s++ {
				conn, err := c.Net.Dial(host, hostOf(s))
				if err != nil {
					panic(err)
				}
				conns[s] = rpc.NewClient(conn, clk)
			}
			ccfg.Shards = conns
		}
		cl := client.New(ccfg)
		c.Redbud = append(c.Redbud, cl)
		c.Mounts = append(c.Mounts, cl)
	}

	// Name every counter in the cluster-wide registry. Only shard 0's MDS
	// is exported: the server metrics carry fixed names, and a second
	// registration would collide.
	for _, d := range c.Devices {
		d.RegisterMetrics(c.Registry)
	}
	c.MetaDev.RegisterMetrics(c.Registry)
	c.Net.RegisterMetrics(c.Registry)
	c.MDS.RegisterMetrics(c.Registry)
	for _, cl := range c.Redbud {
		cl.RegisterMetrics(c.Registry)
	}

	// Per-shard registries feed the cluster collector: each MDS registers
	// into its own, so the fixed server metric names never collide, and the
	// aggregation layer tags each source with its shard name. Clients share
	// one source — their metrics are already labeled per client.
	var sources []agg.Source
	for i, srv := range c.MDSs {
		reg := obs.NewRegistry()
		srv.RegisterMetrics(reg)
		c.ShardRegs = append(c.ShardRegs, reg)
		sources = append(sources, agg.RegistrySource(hostOf(i), reg))
	}
	clientsReg := obs.NewRegistry()
	for _, cl := range c.Redbud {
		cl.RegisterMetrics(clientsReg)
	}
	sources = append(sources, agg.RegistrySource("clients", clientsReg))
	c.Collector = agg.New(sources...)
	return c
}

// buildNFS3 assembles the single-server baseline.
func buildNFS3(opt Options) *Cluster {
	clk := clock.Real(opt.Scale)
	c := &Cluster{System: SysNFS3, Clock: clk}
	if opt.Trace {
		c.Rec = iotrace.NewRecorder()
	}
	// One server disk: NFS owns its storage.
	cfg := blockdev.Config{ID: 0, Size: opt.DeviceSize, Model: opt.Disk, Clock: clk, DisableMerge: opt.DisableMerge}
	if c.Rec != nil {
		cfg.Trace = c.Rec.Record
	}
	disk := blockdev.New(cfg)
	c.Devices = []*blockdev.Device{disk}
	c.closers = append(c.closers, disk.Close)

	srv := nfs3.NewServer(nfs3.ServerConfig{Disk: disk, Clock: clk, Daemons: opt.MDSDaemons, OpCost: opt.MDSOpCost})
	c.closers = append(c.closers, srv.Close)

	n := netsim.NewNetwork(clk)
	n.AddHost("nfs", opt.Net)
	lis, err := n.Listen("nfs")
	if err != nil {
		panic(err)
	}
	go srv.Serve(lis)
	c.closers = append(c.closers, func() { lis.Close() })

	for i := 0; i < opt.Clients; i++ {
		host := fmt.Sprintf("client-%d", i)
		n.AddHost(host, opt.Net)
		conn, err := n.Dial(host, "nfs")
		if err != nil {
			panic(err)
		}
		c.Mounts = append(c.Mounts, nfs3.NewClient(conn, clk))
	}
	return c
}

// buildPVFS2 assembles the striped user-level baseline.
func buildPVFS2(opt Options) *Cluster {
	clk := clock.Real(opt.Scale)
	c := &Cluster{System: SysPVFS2, Clock: clk}
	if opt.Trace {
		c.Rec = iotrace.NewRecorder()
	}
	n := netsim.NewNetwork(clk)

	n.AddHost("meta", opt.Net)
	ml, err := n.Listen("meta")
	if err != nil {
		panic(err)
	}
	ms := pvfs2.NewMetaServer(clk, opt.MDSDaemons, opt.MDSOpCost)
	go ms.Serve(ml)
	c.closers = append(c.closers, func() { ml.Close() }, ms.Close)

	for i := 0; i < opt.DataDevices; i++ {
		host := fmt.Sprintf("data-%d", i)
		n.AddHost(host, opt.Net)
		cfg := blockdev.Config{ID: i, Size: opt.DeviceSize, Model: opt.Disk, Clock: clk, DisableMerge: opt.DisableMerge}
		if c.Rec != nil {
			cfg.Trace = c.Rec.Record
		}
		disk := blockdev.New(cfg)
		c.Devices = append(c.Devices, disk)
		c.closers = append(c.closers, disk.Close)
		ds := pvfs2.NewDataServer(disk, clk, opt.MDSDaemons)
		dl, err := n.Listen(host)
		if err != nil {
			panic(err)
		}
		go ds.Serve(dl)
		c.closers = append(c.closers, func() { dl.Close() }, ds.Close)
	}

	for i := 0; i < opt.Clients; i++ {
		host := fmt.Sprintf("client-%d", i)
		n.AddHost(host, opt.Net)
		mconn, err := n.Dial(host, "meta")
		if err != nil {
			panic(err)
		}
		var dconns []netsim.Conn
		for d := 0; d < opt.DataDevices; d++ {
			dc, err := n.Dial(host, fmt.Sprintf("data-%d", d))
			if err != nil {
				panic(err)
			}
			dconns = append(dconns, dc)
		}
		c.Mounts = append(c.Mounts, pvfs2.NewClient(mconn, dconns, clk))
	}
	return c
}

// RunDistributed runs the spec on every mount concurrently (each client gets
// a private namespace and seed) and aggregates: ops and bytes summed,
// duration = the longest client run (the cluster-level completion time).
func RunDistributed(c *Cluster, spec workload.Spec) (workload.Result, error) {
	results := make([]workload.Result, len(c.Mounts))
	errs := make([]error, len(c.Mounts))
	var wg sync.WaitGroup
	for i, m := range c.Mounts {
		wg.Add(1)
		s := spec
		s.Name = fmt.Sprintf("%s-c%d", spec.Name, i)
		s.Seed = spec.Seed + int64(i)*1000003
		go func() {
			defer wg.Done()
			results[i], errs[i] = workload.Run(m, c.Clock, s)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return workload.Result{}, err
		}
	}
	// Include the drain in the measured window: delayed commit must not
	// get credit for work it simply deferred past the finish line.
	start := c.Clock.Now()
	c.Drain()
	drain := c.Clock.Since(start)

	agg := workload.Result{Name: spec.Name}
	for _, r := range results {
		agg.Ops += r.Ops
		agg.Errors += r.Errors
		agg.BytesWritten += r.BytesWritten
		agg.BytesRead += r.BytesRead
		if r.Duration > agg.Duration {
			agg.Duration = r.Duration
		}
		for k := range agg.Latency {
			agg.Latency[k].Count += r.Latency[k].Count
			agg.Latency[k].Total += r.Latency[k].Total
		}
	}
	agg.Duration += drain
	return agg, nil
}

// RunBTDistributed runs NPB BT-IO across the cluster's mounts.
func RunBTDistributed(c *Cluster, spec workload.BTSpec) (workload.Result, error) {
	return workload.RunBT(c.Mounts, c.Clock, spec)
}

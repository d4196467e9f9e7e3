package main

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"redbud/internal/alloc"
	"redbud/internal/bench"
	"redbud/internal/blockdev"
	"redbud/internal/client"
	"redbud/internal/clock"
	"redbud/internal/mds"
	"redbud/internal/meta"
	"redbud/internal/netsim"
	"redbud/internal/obs"
	"redbud/internal/rpc"
)

// cluster is what a workload iteration needs from an assembled Redbud
// system, whichever way it was built.
type cluster struct {
	bc        *bench.Cluster // Mounts, Clock and Redbud drive bench.RunDistributed
	devices   []*blockdev.Device
	metaDevs  []*blockdev.Device
	stores    []*meta.Store
	agTotals  []int64
	net       *netsim.Network
	mdsHosts  []string
	mdss      []*mds.Server
	shardRegs []*obs.Registry
	clientReg *obs.Registry
	close     func()
}

// buildPlain assembles the cluster through bench.Build, unchanged: the
// untraced end-to-end run.
func buildPlain(sys bench.System, opt bench.Options) *cluster {
	bc := bench.Build(sys, opt)
	c := &cluster{
		bc: bc, devices: bc.Devices, metaDevs: bc.MetaDevs, stores: bc.Stores,
		agTotals: bc.AGTotals, net: bc.Net, mdss: bc.MDSs, shardRegs: bc.ShardRegs,
		close: bc.Close,
	}
	for i := range bc.MDSs {
		c.mdsHosts = append(c.mdsHosts, mdsHost(i, len(bc.MDSs)))
	}
	return c
}

func mdsHost(shard, shards int) string {
	if shards == 1 {
		return "mds"
	}
	return fmt.Sprintf("mds%d", shard)
}

// buildTraced assembles the same cluster as bench.Build from the public
// constructors, so that wrappers can sit on every client conn, every
// server-side conn and every client device handle. It must track
// bench.buildRedbud knob for knob; TestTracedMatchesPlain holds it to that.
func buildTraced(sys bench.System, opt bench.Options, it *iteration) *cluster {
	shards := max(opt.Shards, 1)
	clk := clock.Real(opt.Scale)
	c := &cluster{bc: &bench.Cluster{System: sys, Clock: clk}, clientReg: obs.NewRegistry()}
	var closers []func()

	for i := 0; i < opt.DataDevices; i++ {
		d := blockdev.New(blockdev.Config{ID: i, Size: opt.DeviceSize, Model: opt.Disk, Clock: clk, DisableMerge: opt.DisableMerge})
		c.devices = append(c.devices, d)
		closers = append(closers, d.Close)
	}
	mkAGs := func(shard int) *alloc.AGSet {
		var groups []*alloc.Group
		for _, d := range c.devices {
			if shards == 1 {
				half := d.Size() / 2
				groups = append(groups, alloc.NewGroup(d.ID(), 0, half), alloc.NewGroup(d.ID(), half, d.Size()))
				continue
			}
			per := d.Size() / int64(shards)
			start, end := int64(shard)*per, int64(shard+1)*per
			if shard == shards-1 {
				end = d.Size()
			}
			groups = append(groups, alloc.NewGroup(d.ID(), start, end))
		}
		return alloc.NewAGSet(alloc.RoundRobin, groups...)
	}

	c.net = netsim.NewNetwork(clk)
	for i := 0; i < shards; i++ {
		host := mdsHost(i, shards)
		c.mdsHosts = append(c.mdsHosts, host)
		metaDev := blockdev.New(blockdev.Config{ID: 1000 + i, Size: 4 << 30, Model: opt.Disk, Clock: clk})
		closers = append(closers, metaDev.Close)
		c.metaDevs = append(c.metaDevs, metaDev)
		ags := mkAGs(i)
		c.agTotals = append(c.agTotals, meta.TotalSpace(ags))
		journal := meta.NewJournal(metaDev, 0, 2<<30)
		if opt.JournalMaxDelay > 0 {
			journal.SetBatchPolicy(meta.BatchPolicy{MaxDelay: opt.JournalMaxDelay, Clock: clk})
		}
		store := meta.NewStore(meta.Config{AGs: ags, Journal: journal, Clock: clk, Shard: i, ShardCount: shards})
		c.stores = append(c.stores, store)
		srv := mds.New(mds.Config{
			Store: store, Clock: clk, Daemons: opt.MDSDaemons, OpCost: opt.MDSOpCost,
			FrameCost: opt.MDSFrameCost, ContentionPerDaemon: 0.05,
			ShardIndex: uint32(i), ShardCount: uint32(shards),
		})
		c.mdss = append(c.mdss, srv)
		closers = append(closers, srv.Close)
		reg := obs.NewRegistry()
		srv.RegisterMetrics(reg)
		c.shardRegs = append(c.shardRegs, reg)

		c.net.AddHost(host, opt.Net)
		lis, err := c.net.Listen(host)
		if err != nil {
			panic(err)
		}
		// bench.Build runs srv.Serve(lis); the same accept loop, with each
		// server-side conn wrapped.
		go func() {
			for {
				conn, err := lis.Accept()
				if err != nil {
					return
				}
				go srv.ServeConn(&tracedConn{Conn: conn, it: it, server: true, sent: map[uint64]time.Time{}})
			}
		}()
		closers = append(closers, func() { lis.Close() })
	}

	devMap := make(map[uint32]client.BlockDevice, len(c.devices))
	for _, d := range c.devices {
		devMap[uint32(d.ID())] = &tracedDevice{d: d, it: it}
	}
	mode := client.SyncCommit
	if sys != bench.SysRedbud {
		mode = client.DelayedCommit
	}
	deleg := int64(0)
	if sys == bench.SysRedbudDCSD {
		deleg = opt.DelegationChunk
	}
	dial := func(host, to string) *rpc.Client {
		conn, err := c.net.Dial(host, to)
		if err != nil {
			panic(err)
		}
		return rpc.NewClient(&tracedConn{Conn: conn, it: it, sent: map[uint64]time.Time{}}, clk)
	}
	for i := 0; i < opt.Clients; i++ {
		host := fmt.Sprintf("client-%d", i)
		c.net.AddHost(host, opt.Net)
		net := c.net
		ccfg := client.Config{
			Name: host, Devices: devMap, Clock: clk, Mode: mode,
			CompoundDegree: opt.CompoundDegree, DelegationChunk: deleg,
			NetCongestion:      func() time.Duration { return net.CongestionWait(mdsHost(0, shards)) },
			PoolInterval:       2 * time.Millisecond,
			ReadAhead:          opt.ReadAhead,
			FixedCommitThreads: opt.FixedCommitThreads,
			SpaceNoPrefetch:    opt.SpaceNoPrefetch,
			CommitEvenIfClean:  opt.CommitEvenIfClean,
			Autoscale:          opt.Autoscale,
			EarlyVisibility:    opt.EarlyVisibility,
		}
		if shards == 1 {
			ccfg.MDS = dial(host, "mds")
		} else {
			for s := 0; s < shards; s++ {
				ccfg.Shards = append(ccfg.Shards, dial(host, mdsHost(s, shards)))
			}
		}
		cl := client.New(ccfg)
		cl.RegisterMetrics(c.clientReg)
		c.bc.Redbud = append(c.bc.Redbud, cl)
		c.bc.Mounts = append(c.bc.Mounts, cl)
	}
	c.close = func() {
		for _, m := range c.bc.Mounts {
			_ = m.Close()
		}
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	return c
}

// tracedConn wraps one end of a metadata connection. On the client end it
// counts frames and bytes both ways and times each call from its request's
// Send to the response's Recv; on the server end it times each request
// from Recv to the response's Send. Calls are matched by the message ID
// that leads every rpc frame (little-endian u64, then the kind byte).
type tracedConn struct {
	netsim.Conn
	it     *iteration
	server bool

	mu   sync.Mutex
	sent map[uint64]time.Time // message ID -> when its request was seen
}

const (
	kindRequest  = 0
	kindResponse = 1
)

// SendVec keeps the gather-write path: netsim.SendVec uses the wrapped
// conn's VectorConn when it has one, exactly as it would unwrapped.
func (c *tracedConn) SendVec(hdr, payload []byte) error {
	c.saw(hdr, len(hdr)+len(payload))
	return netsim.SendVec(c.Conn, hdr, payload)
}

func (c *tracedConn) Send(frame []byte) error {
	c.saw(frame, len(frame))
	return c.Conn.Send(frame)
}

func (c *tracedConn) Recv() ([]byte, error) {
	f, err := c.Conn.Recv()
	if err == nil {
		c.saw(f, len(f))
	}
	return f, err
}

func (c *tracedConn) saw(head []byte, n int) {
	if !c.it.measured.Load() || len(head) < 9 {
		return
	}
	if !c.server {
		c.it.netFrames.Add(1)
		c.it.netBytes.Add(int64(n))
	}
	id, kind := binary.LittleEndian.Uint64(head), head[8]
	now := c.it.clk.Now()
	c.mu.Lock()
	start, done := c.sent[id]
	if kind == kindRequest {
		c.sent[id], done = now, false
	} else {
		delete(c.sent, id)
	}
	c.mu.Unlock()
	if done && kind == kindResponse {
		series := serRPC
		if c.server {
			series = serServer
		}
		c.it.record(series, now.Sub(start))
	}
}

// tracedDevice is a client's handle on one data device: it times each write
// from submission until durable and each read.
type tracedDevice struct {
	d  *blockdev.Device
	it *iteration
}

func (t *tracedDevice) WriteAsync(off int64, p []byte) <-chan error {
	if !t.it.measured.Load() {
		return t.d.WriteAsync(off, p)
	}
	start := t.it.clk.Now()
	inner := t.d.WriteAsync(off, p)
	out := make(chan error, 1)
	go func() {
		err := <-inner
		t.it.record(serDevW, t.it.clk.Since(start))
		out <- err
	}()
	return out
}

func (t *tracedDevice) Read(off, n int64) ([]byte, error) {
	start := t.it.clk.Now()
	b, err := t.d.Read(off, n)
	t.it.record(serDevR, t.it.clk.Since(start))
	return b, err
}

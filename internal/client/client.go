// Package client implements the Redbud client file system. It speaks the
// metadata protocol to the MDS over RPC, reads and writes file data directly
// on the shared (simulated) disk array, and implements both update modes the
// paper compares:
//
//   - SyncCommit (original Redbud): the application thread writes the data,
//     spins until it is durable, then sends the commit RPC and waits — the
//     ordered write sits on the critical path (§III-A).
//   - DelayedCommit: the data write is issued, a commit task is enqueued
//     (deduplicated per file), and the call returns. Background commit
//     daemons — an adaptive pool sized ThreadNums = ρ·QueueLen — check out
//     files whose data writes completed, pack several commits into one
//     compound RPC, and send them (§III, §IV).
//
// Space delegation (double-space-pool) and the adaptive compound-degree
// controller come from internal/core.
package client

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"redbud/internal/alloc"
	"redbud/internal/clock"
	"redbud/internal/core"
	"redbud/internal/fsapi"
	"redbud/internal/meta"
	"redbud/internal/obs"
	"redbud/internal/proto"
	"redbud/internal/rpc"
	"redbud/internal/stats"
	"redbud/internal/wire"
)

// Mode selects the update protocol.
type Mode int

// Update modes.
const (
	SyncCommit Mode = iota
	DelayedCommit
)

func (m Mode) String() string {
	if m == SyncCommit {
		return "sync"
	}
	return "delayed"
}

// PageSize is the client page-cache granularity, matching the paper's
// "typical 4KB page size data".
const PageSize = 4096

// BlockDevice is the client's view of one member of the shared disk array:
// the direct data path the paper routes over fiber channel. Implemented by
// *blockdev.Device in-process and by san.RemoteDevice over the network.
type BlockDevice interface {
	// WriteAsync is writepage: it submits the write and returns a channel
	// that yields once the data is durable.
	WriteAsync(off int64, p []byte) <-chan error
	// Read blocks until n bytes at off have been read. The caller owns
	// the returned buffer: the implementation must not keep, reuse or
	// alias it, because read-ahead installs sub-slices of it as cached
	// pages.
	Read(off, n int64) ([]byte, error)
}

// Config assembles a client.
type Config struct {
	// Name identifies the client to the MDS (delegation owner, GC).
	Name string
	// MDS is the connected metadata RPC client. The file-system client
	// owns it and closes it on Close.
	MDS *rpc.Client
	// Redial, if set, establishes a replacement MDS connection after the
	// current one dies; combined with Retry it makes the client survive
	// connection loss and MDS restarts.
	Redial func() (*rpc.Client, error)
	// Shards supplies one connected RPC client per MDS shard (index =
	// shard number) of a sharded namespace; when set it replaces MDS. The
	// client routes every inode by meta.ShardOf and verifies each server's
	// hello-advertised shard coordinates against this topology.
	Shards []*rpc.Client
	// RedialShard re-establishes the connection to one shard after it
	// dies; with Shards set it replaces Redial.
	RedialShard func(shard int) (*rpc.Client, error)
	// Retry governs RPC timeouts and idempotent-retry backoff.
	Retry RetryPolicy
	// Devices maps device IDs to the shared disk array members.
	Devices map[uint32]BlockDevice
	Clock   clock.Clock
	Mode    Mode

	// MaxCommitThreads is ThreadNumsMax (paper: 9).
	MaxCommitThreads int
	// QueueLenMax sets ρ = MaxCommitThreads/QueueLenMax (paper's pool
	// formula). Default 45, which reproduces the paper's observed range:
	// ~20-50 queued commits keep 2-5 threads alive, and floods pin the
	// pool at MaxCommitThreads.
	QueueLenMax int
	// PoolInterval is the pool resize period.
	PoolInterval time.Duration
	// Autoscale replaces the static ρ = MaxCommitThreads/QueueLenMax pool
	// formula with the obs-driven control loop (core.AutoscaleConfig):
	// commit-queue wait and RPC in-flight feed scale decisions, with
	// hysteresis on scale-down. FixedCommitThreads still pins the pool.
	Autoscale bool
	// AutoscaleTuning overrides the control-loop constants; nil picks the
	// defaults (TargetLatency 4×PoolInterval, HighWater 4, LowWater 1,
	// StepUp 2, HoldTicks 3). The QueueLatency and Inflight samplers are
	// always wired by the client and cannot be overridden here.
	AutoscaleTuning *core.AutoscaleConfig
	// CommitInterval optionally paces each commit daemon to one batch per
	// period ("commit requests are handled periodically by background
	// commit daemons", §III-A). Zero (the default) lets the commit RPC
	// round-trip act as the natural pacing; a positive value throttles
	// daemons and grows the queue, useful for studying the adaptive pool.
	CommitInterval time.Duration

	// CompoundDegree pins the compound degree; 0 selects adaptive.
	CompoundDegree int
	// MaxCompoundDegree bounds the adaptive degree (default 6).
	MaxCompoundDegree int
	// NetCongestion feeds the adaptive controller (optional).
	NetCongestion func() time.Duration

	// DelegationChunk enables space delegation with this chunk size
	// (paper: 16 MiB); 0 disables it.
	DelegationChunk int64

	// EarlyVisibility opts conflict reads in to the layout protocol v2
	// early-visibility path: reads that find holes (or reach past the
	// locally known size) ask the MDS for uncommitted extents too —
	// other clients' published write intents — and fetch their data
	// directly from the devices instead of stalling until the writer's
	// commit lands. Safe by construction: devices only ever serve durable
	// (or stale) bytes. Requires the MDS to speak protocol v2; against an
	// older MDS the client transparently falls back to committed-only
	// reads.
	EarlyVisibility bool

	// ReadAhead enables sequential read-ahead with this window (bytes);
	// 0 disables it. The paper's §II motivates "active" file systems by
	// noting a passive one cannot prefetch on its own — with file-system
	// daemons in place, it can: a detected sequential read pattern
	// triggers an asynchronous prefetch of the next window into the page
	// cache.
	ReadAhead int64

	// OnPoolResize observes (threads, queueLen) for the Figure 6 traces.
	OnPoolResize func(threads, queueLen int)

	// Ablation knobs.

	// FixedCommitThreads pins the commit pool size (vs the adaptive
	// ThreadNums = ρ·QueueLen formula); 0 selects adaptive.
	FixedCommitThreads int
	// SpaceNoPrefetch disables the double-space-pool's background refill,
	// degrading delegation to a single pool with blocking refills.
	SpaceNoPrefetch bool
	// CommitEvenIfClean sends a commit RPC for every dequeued entry even
	// when the file has nothing new — approximating a commit queue
	// without per-file deduplication.
	CommitEvenIfClean bool

	// Tracer, if non-nil, records commit-lifecycle spans (commit.queue,
	// commit.datawait, commit.rpc on track "<Name>/commit"; write.app on
	// track "<Name>/app") and cross-shard namespace saga spans (ns.create /
	// ns.remove / ns.rename with per-phase children on track "<Name>/ns").
	// Against a v4 MDS the client also attaches a trace context to commit and
	// saga-leg requests, linking the server-side spans under the client span
	// that issued them — a cross-shard rename renders as one stitched tree.
	Tracer *obs.Tracer
}

// Client implements fsapi.FileSystem.
var _ fsapi.FileSystem = (*Client)(nil)

// Client is a mounted Redbud client.
type Client struct {
	cfg  Config
	clk  clock.Clock
	devs map[uint32]BlockDevice

	// links holds one connection per MDS shard (a single element for the
	// unsharded topology). Slice immutable after New; each link carries its
	// own reconnect bookkeeping.
	links []*mdsLink

	rngMu sync.Mutex
	rng   *rand.Rand // backoff jitter; guarded by rngMu

	commitSeq atomic.Uint64 // CommitID generator

	// protoVersion is the protocol version negotiated by the last OpHello
	// (0 until the first handshake succeeds, which reads as v1 behaviour).
	protoVersion atomic.Uint32

	queue    *core.Queue[meta.FileID]
	pool     *core.Pool
	compound *core.Compound
	// space may be swapped wholesale when an MDS restart invalidates every
	// delegated span, hence the atomic pointer (nil when disabled).
	space atomic.Pointer[core.SpacePool]

	mu     sync.Mutex
	files  map[meta.FileID]*fileState
	dcache map[string]meta.FileID
	closed bool

	st clientStats
	ra raStats

	tracer      *obs.Tracer
	trackApp    string // span track for application threads, "<Name>/app"
	trackCommit string // span track for commit daemons, "<Name>/commit"
	trackNS     string // span track for namespace sagas, "<Name>/ns"

	// commitLat is the client-observed commit latency (enqueue/build →
	// reply), always collected for redbud-top and the obs bench.
	commitLat *stats.Histogram

	// queueWaitNs is the smoothed time commits spend in the queue before a
	// daemon checks them out (EWMA, alpha 1/4) — the autoscaler's latency
	// signal. Maintained whenever autoscaling or tracing is on.
	queueWaitNs atomic.Int64
}

type clientStats struct {
	creates, opens, removes stats.Counter
	writes, reads, closes   stats.Counter
	fsyncs                  stats.Counter
	bytesWritten, bytesRead stats.Counter
	commitsSent             stats.Counter // CommitReq sub-ops sent
	commitRPCs              stats.Counter // network frames carrying commits
	retries                 stats.Counter // idempotent RPC retry attempts
	writeLat, closeLat      stats.DurationSum
	opLat                   stats.DurationSum
}

// Stats is a snapshot of client counters.
type Stats struct {
	Creates, Opens, Removes   int64
	Writes, Reads, Closes     int64
	Fsyncs                    int64
	BytesWritten, BytesRead   int64
	CommitsSent, CommitRPCs   int64
	RPCs                      int64
	QueueEnqueued, QueueDedup int64
	LocalAllocs, Delegations  int64
	WastedDelegationBytes     int64
	MeanWriteLatency          time.Duration
	MeanCloseLatency          time.Duration
	MeanOpLatency             time.Duration
	CommitThreads             int
}

// New mounts a client. The MDS connection(s) must be established.
func New(cfg Config) *Client {
	conns := cfg.Shards
	if len(conns) == 0 {
		if cfg.MDS == nil {
			panic("client: nil MDS connection")
		}
		conns = []*rpc.Client{cfg.MDS}
	}
	for i, mc := range conns {
		if mc == nil {
			panic(fmt.Sprintf("client: nil connection for shard %d", i))
		}
	}
	if cfg.DelegationChunk > 0 && len(conns) > 1 {
		// Delegated spans are granted by one shard's allocator, but a write
		// may land in any shard's file; carving a shard-0 span for a
		// shard-2 inode would corrupt both allocators' books.
		panic("client: space delegation is not supported with a sharded MDS")
	}
	if len(cfg.Devices) == 0 {
		panic("client: no data devices")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real(1)
	}
	if cfg.MaxCommitThreads <= 0 {
		cfg.MaxCommitThreads = 9
	}
	if cfg.QueueLenMax <= 0 {
		cfg.QueueLenMax = 45
	}
	if cfg.PoolInterval <= 0 {
		cfg.PoolInterval = 5 * time.Millisecond
	}
	if cfg.MaxCompoundDegree <= 0 {
		cfg.MaxCompoundDegree = 6
	}

	c := &Client{
		cfg:         cfg,
		clk:         cfg.Clock,
		devs:        cfg.Devices,
		files:       make(map[meta.FileID]*fileState),
		dcache:      make(map[string]meta.FileID),
		tracer:      cfg.Tracer,
		trackApp:    cfg.Name + "/app",
		trackCommit: cfg.Name + "/commit",
		trackNS:     cfg.Name + "/ns",
		commitLat:   stats.NewLatencyHistogram(),
	}
	for i, mc := range conns {
		if d := cfg.Retry.CallTimeout; d > 0 {
			mc.SetCallTimeout(d)
		}
		c.links = append(c.links, &mdsLink{shard: i, mds: mc})
	}
	c.commitSeq.Store(commitIDBase(cfg.Name))
	seed := cfg.Retry.Seed
	if seed == 0 {
		seed = retrySeed(cfg.Name)
	}
	c.rng = rand.New(rand.NewSource(seed))
	c.compound = core.NewCompound(core.CompoundConfig{
		Fixed:         cfg.CompoundDegree,
		Max:           cfg.MaxCompoundDegree,
		NetCongestion: cfg.NetCongestion,
		ServerLoad:    c.serverLoad,
	})
	if cfg.DelegationChunk > 0 {
		c.space.Store(c.newSpacePool())
	}
	if cfg.Redial != nil || cfg.RedialShard != nil || cfg.EarlyVisibility || cfg.Tracer != nil || len(c.links) > 1 {
		// Learn each shard's incarnation — and negotiate the protocol
		// version — up front so a later reconnect can tell a restart from a
		// mere connection blip, so early visibility knows whether the MDS
		// speaks v2, and so tracing knows whether it may attach v4 trace
		// contexts. A sharded mount always handshakes: the hello reply is
		// also the shard-map verification. Best effort otherwise: a
		// pre-Hello MDS build simply leaves sawIncarnation unset (and the
		// session at v1).
		for _, l := range c.links {
			c.hello(l, l.mds)
		}
	}
	if cfg.Mode == DelayedCommit {
		c.queue = core.NewQueue[meta.FileID]()
		pc := core.PoolConfig{
			Max:         cfg.MaxCommitThreads,
			QueueLenMax: cfg.QueueLenMax,
			QueueLen:    c.queue.Len,
			Worker:      c.commitDaemon,
			Interval:    cfg.PoolInterval,
			OnResize:    cfg.OnPoolResize,
			Fixed:       cfg.FixedCommitThreads,
			Clock:       cfg.Clock,
		}
		if cfg.Autoscale {
			as := core.AutoscaleConfig{}
			if cfg.AutoscaleTuning != nil {
				as = *cfg.AutoscaleTuning
			}
			as.QueueLatency = c.queueWait
			as.Inflight = c.rpcInflight
			pc.Autoscale = &as
		}
		c.pool = core.NewPool(pc)
		c.pool.Start()
	}
	return c
}

// queueWait returns the smoothed commit-queue wait (autoscaler signal).
func (c *Client) queueWait() time.Duration { return time.Duration(c.queueWaitNs.Load()) }

// observeQueueWait folds one queue-residency sample into the EWMA.
func (c *Client) observeQueueWait(d time.Duration) {
	for {
		old := c.queueWaitNs.Load()
		nw := int64(d)
		if old != 0 {
			nw = old + (int64(d)-old)/4
		}
		if c.queueWaitNs.CompareAndSwap(old, nw) {
			return
		}
	}
}

// rpcInflight samples outstanding calls on the live MDS connections
// (autoscaler saturation guard).
func (c *Client) rpcInflight() int {
	total := 0
	for _, l := range c.links {
		mds, _ := l.conn()
		total += mds.Inflight()
	}
	return total
}

// delegate is the SpacePool's refill function. Not retried: a duplicate
// grant whose first reply was lost would leak a span on the server.
// Delegation is single-shard only (enforced in New), so shard 0 it is.
func (c *Client) delegate(size int64) (alloc.Span, error) {
	mds, _ := c.links[0].conn()
	var sp proto.SpanMsg
	if err := mds.Call(proto.OpDelegate, &proto.DelegateReq{Owner: c.cfg.Name, Size: size}, &sp); err != nil {
		return alloc.Span{}, err
	}
	return alloc.Span{Dev: int(sp.Dev), Off: sp.Off, Len: sp.Len}, nil
}

// dev resolves a device ID.
func (c *Client) dev(id uint32) (BlockDevice, error) {
	d := c.devs[id]
	if d == nil {
		return nil, fmt.Errorf("client: unknown device %d", id)
	}
	return d, nil
}

// ---------------------------------------------------------------------------
// Namespace operations

// resolve walks path to a file ID using the dentry cache.
func (c *Client) resolve(path string) (meta.FileID, error) {
	parts := fsapi.SplitPath(path)
	if len(parts) == 0 {
		return meta.RootID, nil
	}
	c.mu.Lock()
	if id, ok := c.dcache[path]; ok {
		c.mu.Unlock()
		return id, nil
	}
	c.mu.Unlock()

	cur := meta.RootID
	for _, name := range parts {
		// Each component's dirent lives on its parent's home shard.
		var resp proto.AttrResp
		if err := c.callIdem(c.shardFor(cur), proto.OpLookup, &proto.LookupReq{Parent: cur, Name: name}, &resp); err != nil {
			return 0, mapRemote(err)
		}
		cur = resp.ID
	}
	c.mu.Lock()
	c.dcache[path] = cur
	c.mu.Unlock()
	return cur, nil
}

// resolveParent resolves the directory containing path and the leaf name.
func (c *Client) resolveParent(path string) (meta.FileID, string, error) {
	parts := fsapi.SplitPath(path)
	if len(parts) == 0 {
		return 0, "", fmt.Errorf("client: invalid path %q", path)
	}
	leaf := parts[len(parts)-1]
	dir := meta.RootID
	if len(parts) > 1 {
		sub := "/" + joinPath(parts[:len(parts)-1])
		id, err := c.resolve(sub)
		if err != nil {
			return 0, "", err
		}
		dir = id
	}
	return dir, leaf, nil
}

func joinPath(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += "/"
		}
		out += p
	}
	return out
}

// mapRemote converts MDS error strings to fsapi sentinel errors.
func mapRemote(err error) error {
	var re *rpc.RemoteError
	if errors.As(err, &re) {
		switch {
		case contains(re.Message, "not found"):
			return fmt.Errorf("%w: %s", fsapi.ErrNotExist, re.Message)
		case contains(re.Message, "already exists"):
			return fmt.Errorf("%w: %s", fsapi.ErrExist, re.Message)
		case contains(re.Message, "is a directory"):
			return fmt.Errorf("%w: %s", fsapi.ErrIsDir, re.Message)
		}
	}
	return err
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// Create makes a new regular file and opens it.
func (c *Client) Create(path string) (fsapi.File, error) {
	start := c.clk.Now()
	defer func() { c.st.opLat.Observe(c.clk.Since(start)) }()
	dir, leaf, err := c.resolveParent(path)
	if err != nil {
		return nil, err
	}
	resp, err := c.createEntry(dir, leaf, meta.TypeFile)
	if err != nil {
		return nil, err
	}
	c.st.creates.Inc()
	c.mu.Lock()
	c.dcache[path] = resp.ID
	fs := c.fileStateLocked(resp.ID, 0)
	fs.refs++
	c.mu.Unlock()
	return &File{c: c, fs: fs}, nil
}

// Open opens an existing regular file.
func (c *Client) Open(path string) (fsapi.File, error) {
	start := c.clk.Now()
	defer func() { c.st.opLat.Observe(c.clk.Since(start)) }()
	id, err := c.resolve(path)
	if err != nil {
		return nil, err
	}
	var attr proto.AttrResp
	if err := c.callIdem(c.shardFor(id), proto.OpGetAttr, &proto.GetAttrReq{ID: id}, &attr); err != nil {
		return nil, mapRemote(err)
	}
	if attr.Type == meta.TypeDir {
		return nil, fmt.Errorf("%w: %s", fsapi.ErrIsDir, path)
	}
	c.st.opens.Inc()
	c.mu.Lock()
	fs := c.fileStateLocked(id, attr.Size)
	fs.refs++
	c.mu.Unlock()
	return &File{c: c, fs: fs}, nil
}

// fileStateLocked finds or creates the shared per-file state. Caller holds
// c.mu; fs.size is guarded by fs.mu (reestablish shrinks it concurrently),
// and c.mu → fs.mu is the nesting order used throughout.
func (c *Client) fileStateLocked(id meta.FileID, size int64) *fileState {
	fs := c.files[id]
	if fs == nil {
		fs = newFileState(id, size)
		c.files[id] = fs
		return fs
	}
	fs.mu.Lock()
	if size > fs.size {
		fs.size = size
	}
	// size comes from a committed attr (Create/Open), never from a visible
	// size, so it also raises the committed watermark: a re-opened handle
	// must be able to probe for the layout backing the growth it just saw.
	if size > fs.committedSize {
		fs.committedSize = size
	}
	fs.mu.Unlock()
	return fs
}

// createEntry makes a new namespace entry, routing by the placement hash:
// when the new inode homes on the parent's own shard it is a classic
// one-shard create; otherwise the two-phase cross-shard protocol runs.
func (c *Client) createEntry(dir meta.FileID, leaf string, typ meta.FileType) (proto.AttrResp, error) {
	target := meta.PlaceShard(dir, leaf, len(c.links))
	if target == c.shardOf(dir) {
		// Not retried: a duplicate create whose first reply was lost would
		// fail with ErrExists against the first execution's entry.
		mds, _ := c.links[target].conn()
		var resp proto.AttrResp
		if err := mds.Call(proto.OpCreate, &proto.CreateReq{Parent: dir, Name: leaf, Type: typ}, &resp); err != nil {
			return resp, mapRemote(err)
		}
		return resp, nil
	}
	return c.createCrossShard(dir, leaf, typ, target)
}

// Mkdir creates a directory.
func (c *Client) Mkdir(path string) error {
	dir, leaf, err := c.resolveParent(path)
	if err != nil {
		return err
	}
	resp, err := c.createEntry(dir, leaf, meta.TypeDir)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.dcache[path] = resp.ID
	c.mu.Unlock()
	return nil
}

// Remove unlinks a file or empty directory.
func (c *Client) Remove(path string) error {
	dir, leaf, err := c.resolveParent(path)
	if err != nil {
		return err
	}
	// Resolve the inode (dcache or lookup RPC): any pending delayed
	// commit must land before the extents are freed server-side, and the
	// local state must be forgotten so later drains don't commit against
	// a deleted inode.
	id, resolveErr := c.resolve(path)
	if resolveErr == nil {
		c.mu.Lock()
		fs := c.files[id]
		c.mu.Unlock()
		if fs != nil {
			if err := c.commitFile(fs); err != nil {
				return err
			}
		}
	}
	if resolveErr == nil && c.shardOf(id) != c.shardOf(dir) {
		// The dirent and the inode live on different shards: run the
		// two-phase remove (prepare on home, unlink on parent, commit on
		// home).
		if err := c.removeCrossShard(dir, leaf, id); err != nil {
			return err
		}
	} else {
		mds, _ := c.shardFor(dir).conn()
		if err := mds.Call(proto.OpRemove, &proto.RemoveReq{Parent: dir, Name: leaf}, nil); err != nil {
			return mapRemote(err)
		}
	}
	c.st.removes.Inc()
	c.mu.Lock()
	if resolveErr == nil {
		delete(c.files, id)
	}
	delete(c.dcache, path)
	c.mu.Unlock()
	return nil
}

// Rename moves a file or directory. Any pending delayed commit of the moved
// file rides along untouched — commits address inodes, not names.
func (c *Client) Rename(oldPath, newPath string) error {
	srcDir, srcLeaf, err := c.resolveParent(oldPath)
	if err != nil {
		return err
	}
	dstDir, dstLeaf, err := c.resolveParent(newPath)
	if err != nil {
		return err
	}
	if c.shardOf(srcDir) != c.shardOf(dstDir) {
		// The two dirent tables live on different shards: two-phase rename.
		if err := c.renameCrossShard(srcDir, srcLeaf, dstDir, dstLeaf); err != nil {
			return err
		}
	} else {
		req := proto.RenameReq{SrcParent: srcDir, SrcName: srcLeaf, DstParent: dstDir, DstName: dstLeaf}
		mds, _ := c.shardFor(srcDir).conn()
		if err := mds.Call(proto.OpRename, &req, nil); err != nil {
			return mapRemote(err)
		}
	}
	// Path-keyed cache entries under the old name (and, for directories,
	// the whole subtree) are stale: drop the dentry cache wholesale —
	// renames are rare, lookups are cheap.
	c.mu.Lock()
	c.dcache = make(map[string]meta.FileID)
	c.mu.Unlock()
	return nil
}

func (c *Client) cachedID(path string) (meta.FileID, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id, ok := c.dcache[path]
	return id, ok
}

// Stat describes a path.
func (c *Client) Stat(path string) (fsapi.Info, error) {
	id, err := c.resolve(path)
	if err != nil {
		return fsapi.Info{}, err
	}
	// Attributes come from the inode's home shard — the parent shard's
	// remote-edge record knows only name and type.
	var attr proto.AttrResp
	if err := c.callIdem(c.shardFor(id), proto.OpGetAttr, &proto.GetAttrReq{ID: id}, &attr); err != nil {
		return fsapi.Info{}, mapRemote(err)
	}
	info := fsapi.Info{Name: lastPart(path), Size: attr.Size, Dir: attr.Type == meta.TypeDir, MTime: attr.MTime}
	// Local uncommitted writes make the file larger than the MDS knows.
	c.mu.Lock()
	if fs := c.files[id]; fs != nil {
		fs.mu.Lock()
		if fs.size > info.Size {
			info.Size = fs.size
		}
		fs.mu.Unlock()
	}
	c.mu.Unlock()
	return info, nil
}

func lastPart(path string) string {
	parts := fsapi.SplitPath(path)
	if len(parts) == 0 {
		return "/"
	}
	return parts[len(parts)-1]
}

// ReadDir lists a directory.
func (c *Client) ReadDir(path string) ([]fsapi.Info, error) {
	id, err := c.resolve(path)
	if err != nil {
		return nil, err
	}
	var resp proto.ReadDirResp
	if err := c.callIdem(c.shardFor(id), proto.OpReadDir, &proto.ReadDirReq{ID: id}, &resp); err != nil {
		return nil, mapRemote(err)
	}
	out := make([]fsapi.Info, 0, len(resp.Entries))
	for _, e := range resp.Entries {
		// Remote-homed children list with Size 0 (the parent shard does not
		// track sizes); Stat the path for the authoritative size.
		out = append(out, fsapi.Info{Name: e.Name, Dir: e.Type == meta.TypeDir, Size: e.Size})
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Commit machinery

// enqueueCommit registers a file for background commit (delayed mode) or
// commits it synchronously (sync mode).
func (c *Client) enqueueCommit(fs *fileState) error {
	if c.cfg.Mode == DelayedCommit {
		if c.tracer.Enabled() || c.cfg.Autoscale {
			// Stamp the queue-entry time once per queue residency; the
			// commit daemon that builds the request consumes it (tracing
			// records a span, autoscaling feeds the queue-wait EWMA).
			now := c.clk.Now()
			fs.mu.Lock()
			if fs.enqAt.IsZero() {
				fs.enqAt = now
			}
			fs.mu.Unlock()
		}
		c.queue.Enqueue(fs.id)
		return nil
	}
	return c.commitFile(fs)
}

// commitDaemon is one commit thread: it checks out batches of files whose
// local writes completed and sends their metadata in one compound RPC.
func (c *Client) commitDaemon(stop <-chan struct{}) {
	for {
		c.compound.Tick()
		degree := c.compound.Degree()
		batch := c.queue.Dequeue(degree, stop)
		if batch == nil {
			return
		}
		c.commitBatch(batch)
		if c.cfg.CommitInterval > 0 {
			// Optional periodic processing: one batch per period.
			select {
			case <-stop:
				return
			case <-c.clk.After(c.cfg.CommitInterval):
			}
		}
	}
}

// commitBatch waits for the files' data writes, then sends one compound RPC
// per shard carrying every non-empty commit. Commits route to the inode's
// home shard, so a batch spanning shards splits into one frame each — files
// of one shard still share their frame.
func (c *Client) commitBatch(ids []meta.FileID) {
	var reqs []*proto.CommitReq
	var states []*fileState
	for _, id := range ids {
		c.mu.Lock()
		fs := c.files[id]
		c.mu.Unlock()
		if fs == nil {
			continue
		}
		req := c.buildCommit(fs)
		if req == nil {
			continue
		}
		reqs = append(reqs, req)
		states = append(states, fs)
	}
	if len(c.links) > 1 {
		byShard := make(map[int][]int)
		for i, fs := range states {
			s := c.shardOf(fs.id)
			byShard[s] = append(byShard[s], i)
		}
		for _, idxs := range byShard {
			gr := make([]*proto.CommitReq, 0, len(idxs))
			gs := make([]*fileState, 0, len(idxs))
			for _, i := range idxs {
				gr = append(gr, reqs[i])
				gs = append(gs, states[i])
			}
			c.sendCommitGroup(gs, gr)
		}
		return
	}
	c.sendCommitGroup(states, reqs)
}

// sendCommitGroup ships one group of commits — all homed on the same shard —
// as a single RPC or compound frame.
func (c *Client) sendCommitGroup(states []*fileState, reqs []*proto.CommitReq) {
	if len(reqs) == 0 {
		return
	}
	if len(reqs) == 1 {
		c.st.commitRPCs.Inc()
		c.st.commitsSent.Inc()
		var resp proto.CommitResp
		start := c.clk.Now()
		err := c.sendCommit(states[0], reqs[0], &resp)
		c.observeCommitRPC(start, reqs[0].CommitID)
		c.finishCommit(states[0], reqs[0], err)
		return
	}
	ops := make([]rpc.SubOp, 0, len(reqs))
	for _, req := range reqs {
		ops = append(ops, rpc.SubOp{Op: proto.OpCommit, Body: wire.Encode(req)})
	}
	c.st.commitRPCs.Inc()
	start := c.clk.Now()
	results, err := c.sendCompound(states, ops)
	for i, fs := range states {
		c.st.commitsSent.Inc()
		c.observeCommitRPC(start, reqs[i].CommitID)
		e := err
		if e == nil && results[i].Err != nil {
			e = results[i].Err
		}
		c.finishCommit(fs, reqs[i], e)
	}
}

// observeCommitRPC folds one commit's RPC round-trip into the latency
// histogram and, when tracing, records its commit.rpc span. Commits sharing
// a compound frame share the interval — each rode the same wire round trip.
func (c *Client) observeCommitRPC(start time.Time, commitID uint64) {
	end := c.clk.Now()
	c.commitLat.ObserveDuration(end.Sub(start))
	if c.tracer.Enabled() {
		c.tracer.RecordSpan(obs.Span{
			Track: c.trackCommit, Name: obs.SpanCommitRPC, CommitID: commitID,
			TraceID: commitID, SpanID: obs.NewSpanID(commitID, obs.SpanCommitRPC),
			Start: start, End: end,
		})
	}
}

// buildCommit waits for outstanding data writes (the ordered-write rule) and
// snapshots the file's uncommitted metadata. Returns nil when there is
// nothing to commit.
func (c *Client) buildCommit(fs *fileState) *proto.CommitReq {
	traced := c.tracer.Enabled()
	var waitStart time.Time
	if traced || c.cfg.Autoscale {
		waitStart = c.clk.Now()
	}
	fs.mu.Lock()
	for fs.pendingWrites > 0 {
		fs.cond.Wait()
	}
	enqAt := fs.enqAt
	fs.enqAt = time.Time{}
	if c.cfg.Autoscale && !enqAt.IsZero() {
		c.observeQueueWait(waitStart.Sub(enqAt))
	}
	if fs.writeErr != nil || (!fs.dirtyMeta && !c.cfg.CommitEvenIfClean) {
		fs.mu.Unlock()
		return nil
	}
	var exts []meta.Extent
	for _, e := range fs.extents {
		if e.State == meta.StateUncommitted {
			exts = append(exts, e)
		}
	}
	req := &proto.CommitReq{
		Owner: c.cfg.Name, File: fs.id, Size: fs.size, MTime: fs.mtime,
		// A fresh CommitID per built request: retransmissions of this exact
		// request dedupe at the MDS, while a rebuilt (different) commit for
		// the same file is a new operation.
		CommitID: c.commitSeq.Add(1),
		Extents:  exts,
	}
	fs.mu.Unlock()
	if traced {
		// The commit's trace reuses the CommitID (globally unique — the name
		// hash occupies the high bits) as its TraceID, and the commit.rpc
		// span as the parent the server links under. Only a v4 session may
		// carry the context: an older server would reject the trailing bytes.
		if c.protoVersion.Load() >= proto.ProtoV4 {
			req.Trace = proto.TraceCtx{TraceID: req.CommitID, SpanID: obs.NewSpanID(req.CommitID, obs.SpanCommitRPC)}
		}
		if !enqAt.IsZero() {
			c.tracer.RecordSpan(obs.Span{
				Track: c.trackCommit, Name: obs.SpanCommitQueue, CommitID: req.CommitID,
				TraceID: req.CommitID, SpanID: obs.NewSpanID(req.CommitID, obs.SpanCommitQueue),
				Start: enqAt, End: waitStart,
			})
		}
		c.tracer.RecordSpan(obs.Span{
			Track: c.trackCommit, Name: obs.SpanCommitDataWait, CommitID: req.CommitID,
			TraceID: req.CommitID, SpanID: obs.NewSpanID(req.CommitID, obs.SpanCommitDataWait),
			Start: waitStart, End: c.clk.Now(),
		})
	}
	return req
}

// extentKey identifies one extent of a file: the committed-extent match in
// finishCommit needs the device and file offset too, because volume offsets
// alone are not unique across the array.
type extentKey struct {
	fileOff, volOff int64
	dev             uint32
}

// finishCommit marks the committed extents and wakes fsync waiters. A
// "not found" rejection means the file was removed (possibly by another
// client) while the commit was in flight; there is nothing left to order,
// so the state is dropped rather than treated as a failure.
func (c *Client) finishCommit(fs *fileState, req *proto.CommitReq, err error) {
	if err != nil && errors.Is(mapRemote(err), fsapi.ErrNotExist) {
		fs.mu.Lock()
		fs.dirtyMeta = false
		fs.commitGen++
		fs.cond.Broadcast()
		fs.mu.Unlock()
		return
	}
	fs.mu.Lock()
	if err != nil {
		fs.commitErr = err
	} else {
		// Match acked extents by full identity, not VolOff alone: volume
		// offsets repeat across devices (every device starts its AGs at the
		// same bases), so a VolOff-only match can mark an extent written
		// concurrently with this RPC as committed even though it was never
		// sent — the MDS then never learns about it and cross-client reads
		// see a hole.
		committed := make(map[extentKey]bool, len(req.Extents))
		for _, e := range req.Extents {
			committed[extentKey{e.FileOff, e.VolOff, e.Dev}] = true
		}
		stillDirty := false
		for i := range fs.extents {
			e := &fs.extents[i]
			if committed[extentKey{e.FileOff, e.VolOff, e.Dev}] {
				e.State = meta.StateCommitted
			} else if e.State == meta.StateUncommitted {
				stillDirty = true
			}
		}
		fs.committedSize = req.Size
		fs.dirtyMeta = stillDirty
	}
	fs.commitGen++
	fs.cond.Broadcast()
	fs.mu.Unlock()
}

// commitFile synchronously commits one file (sync mode, fsync, unmount).
func (c *Client) commitFile(fs *fileState) error {
	req := c.buildCommit(fs)
	if req == nil {
		fs.mu.Lock()
		err := fs.writeErr
		fs.mu.Unlock()
		return err
	}
	c.st.commitRPCs.Inc()
	c.st.commitsSent.Inc()
	var resp proto.CommitResp
	start := c.clk.Now()
	err := c.sendCommit(fs, req, &resp)
	c.observeCommitRPC(start, req.CommitID)
	c.finishCommit(fs, req, err)
	if err != nil && errors.Is(mapRemote(err), fsapi.ErrNotExist) {
		return nil // file removed while the commit was in flight
	}
	return err
}

// ---------------------------------------------------------------------------
// Lifecycle

// Close unmounts: flushes all dirty files, drains the commit machinery, and
// returns delegations.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fsapi.ErrClosed
	}
	c.closed = true
	files := make([]*fileState, 0, len(c.files))
	for _, fs := range c.files {
		files = append(files, fs)
	}
	c.mu.Unlock()

	firstErr := c.drainFiles(files)
	if c.pool != nil {
		c.queue.Close()
		c.pool.Stop()
	}
	if pool := c.space.Load(); pool != nil {
		mds, _ := c.links[0].conn()
		for _, sp := range pool.Close() {
			msg := proto.SpanMsg{Dev: uint32(sp.Dev), Off: sp.Off, Len: sp.Len}
			if err := mds.Call(proto.OpDelegReturn, &proto.DelegReturnReq{Owner: c.cfg.Name, Span: msg}, nil); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	for _, l := range c.links {
		mds, _ := l.conn()
		mds.Close()
	}
	return firstErr
}

// Crash abandons the client without committing or returning anything —
// the client-failure scenario for orphan-GC tests.
func (c *Client) Crash() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	if c.pool != nil {
		c.queue.Close()
		c.pool.Stop()
	}
	for _, l := range c.links {
		mds, _ := l.conn()
		mds.Close()
	}
}

// Drain blocks until the commit queue is empty and all dirty files are
// committed; the harness uses it to close a measurement window without
// tearing the client down. Commits are issued with the same parallelism the
// background pool would use.
func (c *Client) Drain() error {
	c.mu.Lock()
	files := make([]*fileState, 0, len(c.files))
	for _, fs := range c.files {
		files = append(files, fs)
	}
	c.mu.Unlock()

	return c.drainFiles(files)
}

// drainFiles commits the given files with bounded parallelism.
func (c *Client) drainFiles(files []*fileState) error {
	sem := make(chan struct{}, c.cfg.MaxCommitThreads)
	errc := make(chan error, len(files))
	for _, fs := range files {
		sem <- struct{}{}
		go func() {
			defer func() { <-sem }()
			errc <- c.commitFile(fs)
		}()
	}
	var firstErr error
	for range files {
		if err := <-errc; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// QueueLen exposes the commit queue length (Figure 6 sampling).
func (c *Client) QueueLen() int {
	if c.queue == nil {
		return 0
	}
	return c.queue.Len()
}

// CommitThreads exposes the live commit-thread count (Figure 6 sampling).
func (c *Client) CommitThreads() int {
	if c.pool == nil {
		return 0
	}
	return c.pool.Size()
}

// CompoundDegree exposes the current compound degree.
func (c *Client) CompoundDegree() int { return c.compound.Degree() }

// Stats snapshots the client counters.
func (c *Client) Stats() Stats {
	s := Stats{
		Creates:          c.st.creates.Load(),
		Opens:            c.st.opens.Load(),
		Removes:          c.st.removes.Load(),
		Writes:           c.st.writes.Load(),
		Reads:            c.st.reads.Load(),
		Closes:           c.st.closes.Load(),
		Fsyncs:           c.st.fsyncs.Load(),
		BytesWritten:     c.st.bytesWritten.Load(),
		BytesRead:        c.st.bytesRead.Load(),
		CommitsSent:      c.st.commitsSent.Load(),
		CommitRPCs:       c.st.commitRPCs.Load(),
		RPCs:             c.rpcCalls(),
		MeanWriteLatency: c.st.writeLat.Mean(),
		MeanCloseLatency: c.st.closeLat.Mean(),
		MeanOpLatency:    c.st.opLat.Mean(),
		CommitThreads:    c.CommitThreads(),
	}
	if c.queue != nil {
		s.QueueEnqueued, s.QueueDedup = c.queue.Stats()
	}
	if pool := c.space.Load(); pool != nil {
		s.LocalAllocs, s.Delegations, s.WastedDelegationBytes = pool.Stats()
	}
	return s
}

// rpcCalls totals RPCs across every shard's live connection and any each
// replaced.
func (c *Client) rpcCalls() int64 {
	var total int64
	for _, l := range c.links {
		total += l.calls()
	}
	return total
}

// badFrames sums the live connections' malformed-frame counters.
func (c *Client) badFrames() int64 {
	var total int64
	for _, l := range c.links {
		mds, _ := l.conn()
		total += mds.BadFrames()
	}
	return total
}

// CommitLatency exposes the client-observed commit latency histogram
// (seconds, RPC send → reply).
func (c *Client) CommitLatency() *stats.Histogram { return c.commitLat }

// RegisterMetrics exposes the client counters in a metrics registry,
// labeled with the client name.
func (c *Client) RegisterMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	l := obs.Labels{"client": c.cfg.Name}
	r.CounterFunc("redbud_client_writes_total", "WriteAt calls", l, c.st.writes.Load)
	r.CounterFunc("redbud_client_reads_total", "ReadAt calls", l, c.st.reads.Load)
	r.CounterFunc("redbud_client_written_bytes_total", "bytes written by applications", l, c.st.bytesWritten.Load)
	r.CounterFunc("redbud_client_read_bytes_total", "bytes read by applications", l, c.st.bytesRead.Load)
	r.CounterFunc("redbud_client_fsyncs_total", "Sync calls", l, c.st.fsyncs.Load)
	r.CounterFunc("redbud_client_commits_sent_total", "commit requests sent (compound sub-ops counted)", l, c.st.commitsSent.Load)
	r.CounterFunc("redbud_client_commit_rpcs_total", "network frames carrying commits", l, c.st.commitRPCs.Load)
	r.CounterFunc("redbud_client_rpcs_total", "RPCs issued across all MDS connections", l, c.rpcCalls)
	r.CounterFunc("redbud_client_retries_total", "idempotent RPC retry attempts after transport faults", l, c.st.retries.Load)
	r.CounterFunc("redbud_client_bad_frames_total", "malformed response frames on the live connection", l, c.badFrames)
	r.GaugeFunc("redbud_client_commit_queue_len", "commit queue length", l,
		func() int64 { return int64(c.QueueLen()) })
	r.GaugeFunc("redbud_client_commit_threads", "live commit-daemon pool size", l,
		func() int64 { return int64(c.CommitThreads()) })
	r.GaugeFunc("redbud_client_compound_degree", "current adaptive compound degree", l,
		func() int64 { return int64(c.CompoundDegree()) })
	r.RegisterHistogram("redbud_client_commit_latency_seconds", "client-observed commit RPC latency", l, c.commitLat)
	r.GaugeFunc("redbud_client_commit_queue_wait_ns", "smoothed commit queue wait (autoscaler latency signal)", l, c.queueWaitNs.Load)
	if c.pool != nil {
		r.CounterFunc("redbud_client_autoscale_ups_total", "autoscaler scale-up decisions", l,
			func() int64 { return c.pool.AutoscaleStats().Ups })
		r.CounterFunc("redbud_client_autoscale_downs_total", "autoscaler scale-down decisions", l,
			func() int64 { return c.pool.AutoscaleStats().Downs })
		r.CounterFunc("redbud_client_autoscale_holds_total", "autoscaler hold decisions", l,
			func() int64 { return c.pool.AutoscaleStats().Holds })
	}
}

// AutoscaleStats exposes the commit pool's control-loop decision counters
// (zeros in sync mode or under the v1 formula).
func (c *Client) AutoscaleStats() core.AutoscaleStats {
	if c.pool == nil {
		return core.AutoscaleStats{}
	}
	return c.pool.AutoscaleStats()
}

package main

import (
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"

	"redbud/internal/clock"
	"redbud/internal/fsapi"
)

// Per-layer latency series recorded at the fsapi boundary or by the traced
// run's conn and device wrappers (virtual time, measured phase only).
const (
	serCreate = "client.create"
	serClose  = "client.close"
	serFsync  = "client.fsync"
	serRemove = "client.remove"
	serRead   = "client.read"
	serRPC    = "rpc.call"
	serServer = "mds.server"
	serDevW   = "dev.write"
	serDevR   = "dev.read"
	serNetW   = "net.mds_wait"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// tag is a file's content fingerprint, recorded as it is written: the CRC of
// its bytes in offset order. A whole-file read must reproduce it.
type tag struct {
	size int64
	crc  uint32
}

// iteration is the state one workload iteration shares between the code
// that drives the workload, the mount probes and (when traced) the conn and
// device wrappers: the prefill barrier, the measured-phase window and the
// samples taken in it.
type iteration struct {
	clk      clock.Clock
	mounts   int
	t0       int64 // raw monotonic ns at iteration start
	measured atomic.Bool

	// Metadata-link traffic seen by the traced run's client conns.
	netFrames, netBytes atomic.Int64

	// onRelease runs once, when the prefill barrier opens, before the host
	// baseline is taken; onFinish runs once, when the measured phase ends,
	// after the host reading.
	onRelease, onFinish func()

	mu        sync.Mutex
	arrived   int
	released  chan struct{}
	setup     time.Duration // wall time from t0 to the barrier
	v0, v1    time.Time     // virtual window of the measured phase
	h0, h1    hostSnap
	lastOpEnd time.Time
	ops       int64
	opLat     []float64 // ms
	series    map[string][]float64
	tags      map[string]tag
	verified  int64
	failures  []string
}

func newIteration(clk clock.Clock, mounts int) *iteration {
	return &iteration{
		clk:      clk,
		mounts:   mounts,
		t0:       monoNow(),
		released: make(chan struct{}),
		series:   map[string][]float64{},
		tags:     map[string]tag{},
	}
}

// arrive blocks until every mount has finished its prefill; the last to
// arrive opens the measured phase.
func (it *iteration) arrive() {
	it.mu.Lock()
	it.arrived++
	last := it.arrived == it.mounts
	it.mu.Unlock()
	if last {
		it.release()
		return
	}
	<-it.released
}

// release ends set-up and starts the measured phase: set-up wall time, the
// layer counter baselines, then the host baseline as the last thing before
// the first measured op.
func (it *iteration) release() {
	it.setup = time.Duration(monoNow() - it.t0)
	if it.onRelease != nil {
		it.onRelease()
	}
	it.v0 = it.clk.Now()
	it.h0 = readHost()
	it.measured.Store(true)
	close(it.released)
}

// finish closes the measured phase (after the final drain).
func (it *iteration) finish() {
	it.h1 = readHost()
	it.v1 = it.clk.Now()
	it.measured.Store(false)
	if it.onFinish != nil {
		it.onFinish()
	}
}

// record adds one measured-phase sample to a layer series.
func (it *iteration) record(series string, d time.Duration) {
	if !it.measured.Load() {
		return
	}
	it.mu.Lock()
	it.series[series] = append(it.series[series], ms(d))
	it.mu.Unlock()
}

// opDone records one completed application op that began at start.
func (it *iteration) opDone(start time.Time) {
	if !it.measured.Load() {
		return
	}
	end := it.clk.Now()
	it.mu.Lock()
	it.ops++
	it.opLat = append(it.opLat, ms(end.Sub(start)))
	if end.After(it.lastOpEnd) {
		it.lastOpEnd = end
	}
	it.mu.Unlock()
}

func (it *iteration) fail(format string, args ...any) {
	it.mu.Lock()
	if len(it.failures) < 20 {
		it.failures = append(it.failures, fmt.Sprintf(format, args...))
	}
	it.mu.Unlock()
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// drainer is the Redbud client's flush of every deferred commit.
type drainer interface{ Drain() error }

// probeFS wraps one mount: it times each application op and each client
// call at the fsapi boundary, fingerprints what is written and verifies
// whole-file reads against it, and holds the mount's last prefill close at
// the iteration's barrier. It adds no virtual time.
type probeFS struct {
	fs      fsapi.FileSystem
	it      *iteration
	prefill int // created-file closes that make up this mount's prefill
	closed  int // guarded by it.mu
}

func newProbe(fs fsapi.FileSystem, it *iteration, prefill int) *probeFS {
	if _, ok := fs.(drainer); !ok {
		panic(fmt.Sprintf("perfbench: mount %T has no Drain", fs))
	}
	return &probeFS{fs: fs, it: it, prefill: prefill}
}

// Drain forwards the client's flush, so harness code that type-asserts for
// it finds it through the probe.
func (p *probeFS) Drain() error { return p.fs.(drainer).Drain() }

func (p *probeFS) Create(path string) (fsapi.File, error) {
	start := p.it.clk.Now()
	f, err := p.fs.Create(path)
	p.it.record(serCreate, p.it.clk.Since(start))
	if err != nil {
		return nil, err
	}
	return p.wrap(&probeFile{p: p, f: f, path: path, start: start, created: true, known: true}), nil
}

func (p *probeFS) Open(path string) (fsapi.File, error) {
	start := p.it.clk.Now()
	f, err := p.fs.Open(path)
	if err != nil {
		return nil, err
	}
	p.it.mu.Lock()
	t, known := p.it.tags[path]
	p.it.mu.Unlock()
	return p.wrap(&probeFile{p: p, f: f, path: path, start: start, tag: t, known: known}), nil
}

// wrap forwards fsapi.CollectiveWriter only when the wrapped file has it, so
// callers take the same branch through the probe as without it.
func (p *probeFS) wrap(pf *probeFile) fsapi.File {
	if cw, ok := pf.f.(fsapi.CollectiveWriter); ok {
		return &probeCollectiveFile{probeFile: pf, cw: cw}
	}
	return pf
}

func (p *probeFS) Remove(path string) error {
	start := p.it.clk.Now()
	err := p.fs.Remove(path)
	p.it.record(serRemove, p.it.clk.Since(start))
	if err == nil {
		p.it.mu.Lock()
		delete(p.it.tags, path)
		p.it.mu.Unlock()
		p.it.opDone(start)
	}
	return err
}

func (p *probeFS) Stat(path string) (fsapi.Info, error) {
	start := p.it.clk.Now()
	info, err := p.fs.Stat(path)
	if err == nil {
		p.it.opDone(start)
	}
	return info, err
}

func (p *probeFS) Mkdir(path string) error                   { return p.fs.Mkdir(path) }
func (p *probeFS) Rename(oldPath, newPath string) error      { return p.fs.Rename(oldPath, newPath) }
func (p *probeFS) ReadDir(path string) ([]fsapi.Info, error) { return p.fs.ReadDir(path) }
func (p *probeFS) Close() error                              { return p.fs.Close() }

// probeFile is one open handle: the application op it belongs to runs from
// Create/Open to Close.
type probeFile struct {
	p       *probeFS
	f       fsapi.File
	path    string
	start   time.Time
	created bool
	tag          // content written so far, in offset order
	known   bool // tag covers the whole file
	dirty   bool // written through this handle
	read    bool // read through this handle
}

func (f *probeFile) WriteAt(b []byte, off int64) (int, error) {
	n, err := f.f.WriteAt(b, off)
	f.dirty = true
	switch {
	case err != nil || !f.known:
	case off == f.size:
		f.crc = crc32.Update(f.crc, crcTable, b[:n])
		f.size += int64(n)
	default:
		f.known = false // an overwrite: no cheap fingerprint, skip checks
	}
	return n, err
}

func (f *probeFile) Append(b []byte) (int64, error) {
	n, err := f.f.Append(b)
	f.dirty = true
	if err == nil && f.known {
		f.crc = crc32.Update(f.crc, crcTable, b)
		f.size += int64(len(b))
	}
	return n, err
}

func (f *probeFile) ReadAt(b []byte, off int64) (int, error) {
	n, err := f.f.ReadAt(b, off)
	f.read = true
	if err == nil && f.known && off == 0 && !f.dirty && int64(len(b)) >= f.size {
		if int64(n) != f.size || crc32.Checksum(b[:n], crcTable) != f.crc {
			f.p.it.fail("read %s: %d bytes, crc %08x; wrote %d bytes, crc %08x",
				f.path, n, crc32.Checksum(b[:n], crcTable), f.size, f.crc)
		} else {
			f.p.it.mu.Lock()
			f.p.it.verified++
			f.p.it.mu.Unlock()
		}
	}
	return n, err
}

func (f *probeFile) Size() int64 { return f.f.Size() }

func (f *probeFile) Sync() error {
	start := f.p.it.clk.Now()
	err := f.f.Sync()
	f.p.it.record(serFsync, f.p.it.clk.Since(start))
	return err
}

func (f *probeFile) Close() error {
	it := f.p.it
	start := it.clk.Now()
	err := f.f.Close()
	it.record(serClose, it.clk.Since(start))
	if err != nil {
		return err
	}
	it.mu.Lock()
	if f.dirty {
		if f.known {
			it.tags[f.path] = f.tag
		} else {
			delete(it.tags, f.path)
		}
	}
	atBarrier := false
	if f.created && !it.measured.Load() {
		f.p.closed++
		atBarrier = f.p.closed == f.p.prefill
	}
	it.mu.Unlock()
	if f.read && !f.dirty {
		it.record(serRead, it.clk.Since(f.start))
	}
	it.opDone(f.start)
	if atBarrier {
		it.arrive()
	}
	return nil
}

type probeCollectiveFile struct {
	*probeFile
	cw fsapi.CollectiveWriter
}

func (f *probeCollectiveFile) WriteCollective(blocks []fsapi.CollectiveBlock) error {
	f.dirty = true
	f.known = false
	return f.cw.WriteCollective(blocks)
}

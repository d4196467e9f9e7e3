package blockdev

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"redbud/internal/clock"
	"redbud/internal/obs"
	"redbud/internal/stats"
)

// Op is the direction of an I/O request.
type Op uint8

// Request directions.
const (
	OpRead Op = iota
	OpWrite
)

func (o Op) String() string {
	if o == OpRead {
		return "R"
	}
	return "W"
}

// Errors returned by device operations.
var (
	ErrClosed     = errors.New("blockdev: device closed")
	ErrCrashed    = errors.New("blockdev: device crashed")
	ErrOutOfRange = errors.New("blockdev: request outside device")
)

// Event is one dispatched (post-merge) I/O, the simulator's equivalent of a
// blktrace completion record.
type Event struct {
	T       time.Time // dispatch completion time (virtual)
	Dev     int       // device ID
	Op      Op
	Offset  int64 // bytes
	Length  int64 // bytes
	SeekLen int64 // absolute head movement to reach Offset; 0 = sequential
	Merged  int   // number of original requests absorbed into this dispatch
}

// TraceFunc receives every dispatched I/O. It is called from the device
// scheduler goroutine and must not block.
type TraceFunc func(Event)

// Config describes one simulated device.
type Config struct {
	ID    int
	Size  int64 // capacity in bytes
	Model DiskModel
	Clock clock.Clock
	// MaxMergedBytes caps the size of a merged dispatch; 0 means the
	// default of 1 MiB (the Linux elevator's default cap of the era).
	MaxMergedBytes int64
	// DisableMerge turns the elevator's request merging off (used by the
	// original-Redbud configuration ablation).
	DisableMerge bool
	// Trace, if non-nil, observes every dispatch.
	Trace TraceFunc
	// Tracer, if non-nil, records dev.queue / dev.seek / dev.xfer spans for
	// every dispatch on track "dev<ID>".
	Tracer *obs.Tracer
	// WriteFault, if non-nil, decides the fate of every write at completion
	// time (see faults.go). Also settable later via SetWriteFault.
	WriteFault WriteFaultFunc
}

// Stats aggregates device-level counters.
type Stats struct {
	Submitted   int64
	Dispatched  int64
	Merged      int64 // requests absorbed into another dispatch
	Seeks       int64 // dispatches requiring head movement
	SeekBytes   int64 // total absolute head movement
	BytesRead   int64
	BytesWrite  int64
	BusyTime    time.Duration
	QueueLen    int64 // instantaneous
	MeanLatency time.Duration
}

// MergeRatio returns merged/submitted — the fraction of submitted requests
// absorbed into another dispatch (Figure 4's metric).
func (s Stats) MergeRatio() float64 {
	if s.Submitted == 0 {
		return 0
	}
	return float64(s.Merged) / float64(s.Submitted)
}

// request is one caller-visible I/O.
type request struct {
	op   Op
	off  int64
	n    int64
	data []byte // write payload (owned copy, adopted by the store)
	buf  []byte // read destination, len n, filled at completion
	done chan error
	enq  time.Time
}

// ior is an elevator queue entry: one future dispatch, possibly covering
// several merged requests whose ranges are physically contiguous.
type ior struct {
	op   Op
	off  int64
	n    int64
	reqs []*request
}

// Device is a simulated block device with a single head and an elevator
// scheduler. All methods are safe for concurrent use.
type Device struct {
	cfg   Config
	clk   clock.Clock
	store *pageStore

	mu         sync.Mutex
	cond       *sync.Cond
	queue      []*ior
	head       int64
	closed     bool
	crashed    bool
	writeFault WriteFaultFunc

	durable intervalSet

	nFaults stats.Counter

	nSubmitted stats.Counter
	nDispatch  stats.Counter
	nMerged    stats.Counter
	nSeeks     stats.Counter
	seekBytes  stats.Counter
	bytesRead  stats.Counter
	bytesWrite stats.Counter
	busy       stats.DurationSum
	latency    stats.DurationSum
	queueLen   stats.Gauge

	baseMu sync.Mutex
	base   Stats // snapshot subtracted by Stats(); set by ResetStats

	track string // precomputed span track name, "dev<ID>"

	wg sync.WaitGroup
}

// New creates a device and starts its scheduler.
func New(cfg Config) *Device {
	if cfg.Clock == nil {
		cfg.Clock = clock.Real(1)
	}
	if cfg.Size <= 0 {
		cfg.Size = 1 << 40 // 1 TiB default
	}
	if cfg.MaxMergedBytes <= 0 {
		cfg.MaxMergedBytes = 1 << 20
	}
	d := &Device{cfg: cfg, clk: cfg.Clock, store: newPageStore(), writeFault: cfg.WriteFault,
		track: fmt.Sprintf("dev%d", cfg.ID)}
	d.cond = sync.NewCond(&d.mu)
	d.wg.Add(1)
	go d.scheduler()
	return d
}

// ID returns the device identifier.
func (d *Device) ID() int { return d.cfg.ID }

// Size returns the device capacity in bytes.
func (d *Device) Size() int64 { return d.cfg.Size }

// WriteAsync submits a write of p at off and returns a channel that receives
// the result once the write is durable. The payload is copied exactly once,
// here, so the caller may reuse p as soon as WriteAsync returns; at
// completion the device store adopts that copy as the stored bytes.
func (d *Device) WriteAsync(off int64, p []byte) <-chan error {
	done := make(chan error, 1)
	if len(p) == 0 {
		done <- nil
		return done
	}
	if off < 0 || off+int64(len(p)) > d.cfg.Size {
		done <- fmt.Errorf("%w: write [%d,%d) size %d", ErrOutOfRange, off, off+int64(len(p)), d.cfg.Size)
		return done
	}
	data := make([]byte, len(p))
	copy(data, p)
	d.submit(&request{op: OpWrite, off: off, n: int64(len(p)), data: data, done: done, enq: d.clk.Now()})
	return done
}

// Write submits a write and blocks until it is durable.
func (d *Device) Write(off int64, p []byte) error { return <-d.WriteAsync(off, p) }

// ReadAsync submits a read of n bytes at off.
func (d *Device) ReadAsync(off, n int64) (<-chan error, []byte) {
	done := make(chan error, 1)
	buf := make([]byte, n)
	if n == 0 {
		done <- nil
		return done, buf
	}
	if off < 0 || n < 0 || off+n > d.cfg.Size {
		done <- fmt.Errorf("%w: read [%d,%d) size %d", ErrOutOfRange, off, off+n, d.cfg.Size)
		return done, buf
	}
	d.submit(&request{op: OpRead, off: off, n: n, buf: buf, done: done, enq: d.clk.Now()})
	return done, buf
}

// Read blocks until n bytes at off have been read.
func (d *Device) Read(off, n int64) ([]byte, error) {
	done, buf := d.ReadAsync(off, n)
	err := <-done
	return buf, err
}

// IsDurable reports whether every byte of [off, off+n) has been written by a
// completed write since the last crash. This is the hook the ordered-write
// invariant checks use.
func (d *Device) IsDurable(off, n int64) bool { return d.durable.contains(off, off+n) }

// submit enqueues a request, attempting an elevator merge against the queue.
func (d *Device) submit(r *request) {
	d.mu.Lock()
	if d.closed || d.crashed {
		err := ErrClosed
		if d.crashed {
			err = ErrCrashed
		}
		d.mu.Unlock()
		r.done <- err
		return
	}
	d.nSubmitted.Inc()
	if !d.cfg.DisableMerge && d.tryMerge(r) {
		d.nMerged.Inc()
		d.mu.Unlock()
		return
	}
	d.queue = append(d.queue, &ior{op: r.op, off: r.off, n: r.n, reqs: []*request{r}})
	d.queueLen.Set(int64(len(d.queue)))
	d.cond.Signal()
	d.mu.Unlock()
}

// tryMerge attempts a back- or front-merge of r into an existing queue entry.
// Caller holds d.mu.
func (d *Device) tryMerge(r *request) bool {
	for _, q := range d.queue {
		if q.op != r.op || q.n+r.n > d.cfg.MaxMergedBytes {
			continue
		}
		if r.off == q.off+q.n { // back merge
			q.n += r.n
			q.reqs = append(q.reqs, r)
			return true
		}
		if r.off+r.n == q.off { // front merge
			q.off = r.off
			q.n += r.n
			q.reqs = append(q.reqs, r)
			return true
		}
	}
	return false
}

// pickNext removes and returns the next queue entry: reads are served before
// writes (deadline-scheduler style — a synchronous reader must not starve
// behind a flood of asynchronous write-back), and within the chosen class
// C-LOOK picks the lowest offset at or beyond the head, wrapping to the
// lowest offset overall. Caller holds d.mu; queue must be non-empty.
func (d *Device) pickNext() *ior {
	class := OpWrite
	for _, q := range d.queue {
		if q.op == OpRead {
			class = OpRead
			break
		}
	}
	best, bestAny := -1, -1
	for i, q := range d.queue {
		if q.op != class {
			continue
		}
		if q.off >= d.head && (best == -1 || q.off < d.queue[best].off) {
			best = i
		}
		if bestAny == -1 || q.off < d.queue[bestAny].off {
			bestAny = i
		}
	}
	if best == -1 {
		best = bestAny
	}
	q := d.queue[best]
	d.queue = append(d.queue[:best], d.queue[best+1:]...)
	d.queueLen.Set(int64(len(d.queue)))
	return q
}

// scheduler is the device's single service loop.
func (d *Device) scheduler() {
	defer d.wg.Done()
	for {
		d.mu.Lock()
		for len(d.queue) == 0 && !d.closed {
			d.cond.Wait()
		}
		if len(d.queue) == 0 && d.closed {
			d.mu.Unlock()
			return
		}
		q := d.pickNext()
		head := d.head
		d.head = q.off + q.n
		d.mu.Unlock()

		st := d.cfg.Model.ServiceTime(head, q.off, q.n)
		d.clk.Sleep(st)
		d.complete(q, head, st)
	}
}

// complete applies a dispatched entry to the store and finishes its requests.
// Requests merged into one dispatch can fail individually under an injected
// write fault, so completion errors are per-request.
func (d *Device) complete(q *ior, head int64, st time.Duration) {
	d.mu.Lock()
	crashed := d.crashed
	fault := d.writeFault
	d.mu.Unlock()

	errs := make([]error, len(q.reqs))
	if crashed {
		for i := range errs {
			errs[i] = ErrCrashed
		}
	} else {
		for i, r := range q.reqs {
			if r.op != OpWrite {
				d.store.readAt(r.buf, r.off)
				d.bytesRead.Add(r.n)
				continue
			}
			if fault != nil {
				f, keep := fault(r.off, r.n)
				if f == WriteError || f == WriteTorn {
					d.nFaults.Inc()
					if f == WriteError {
						errs[i] = fmt.Errorf("%w: write [%d,%d)", ErrInjected, r.off, r.off+r.n)
						continue
					}
					// Torn: persist a strict prefix and record only it as
					// durable; the request's full range stays non-durable.
					if keep < 0 {
						keep = 0
					}
					if keep >= r.n {
						keep = r.n - 1
					}
					if keep > 0 {
						d.persist(r, keep)
					}
					errs[i] = fmt.Errorf("%w: torn write [%d,%d) kept %d bytes", ErrInjected, r.off, r.off+r.n, keep)
					continue
				}
			}
			d.persist(r, r.n)
		}
	}

	d.nDispatch.Inc()
	d.busy.Observe(st)
	seek := q.off - head
	if seek < 0 {
		seek = -seek
	}
	if seek != 0 {
		d.nSeeks.Inc()
		d.seekBytes.Add(seek)
	}
	now := d.clk.Now()
	for i, r := range q.reqs {
		d.latency.Observe(now.Sub(r.enq))
		r.done <- errs[i]
	}
	if d.cfg.Trace != nil && !crashed {
		d.cfg.Trace(Event{T: now, Dev: d.cfg.ID, Op: q.op, Offset: q.off, Length: q.n, SeekLen: seek, Merged: len(q.reqs) - 1})
	}
	if d.cfg.Tracer.Enabled() && !crashed {
		// Reconstruct the dispatch timeline from the service-time model:
		// [dispatch, dispatch+seek) positions the head, the remainder is
		// controller overhead + media transfer.
		dispatch := now.Add(-st)
		seekT := d.cfg.Model.SeekTime(head, q.off)
		minEnq := q.reqs[0].enq
		for _, r := range q.reqs[1:] {
			if r.enq.Before(minEnq) {
				minEnq = r.enq
			}
		}
		d.cfg.Tracer.Record(d.track, obs.SpanDevQueue, 0, minEnq, dispatch)
		if seekT > 0 {
			d.cfg.Tracer.Record(d.track, obs.SpanDevSeek, 0, dispatch, dispatch.Add(seekT))
		}
		d.cfg.Tracer.Record(d.track, obs.SpanDevTransfer, 0, dispatch.Add(seekT), now)
	}
}

// persist stores the first n bytes of write r's payload and records them as
// durable. A page-aligned payload is adopted by the store: it is the
// device's own copy (see WriteAsync), so its pages need no second copy. An
// unaligned payload is copied, because adopting its fully covered pages
// would let them pin the partially covered edge bytes of every such write.
func (d *Device) persist(r *request, n int64) {
	if r.off%pageSize == 0 && r.n%pageSize == 0 {
		d.store.adopt(r.data[:n], r.off)
	} else {
		d.store.writeAt(r.data[:n], r.off)
	}
	d.durable.add(r.off, r.off+n)
	d.bytesWrite.Add(n)
}

// Crash simulates a power failure: queued and future requests fail, and the
// durability record of in-flight writes is preserved only for completed ones.
// Data already durable survives (the store is "on disk").
func (d *Device) Crash() {
	d.mu.Lock()
	d.crashed = true
	q := d.queue
	d.queue = nil
	d.queueLen.Set(0)
	d.mu.Unlock()
	for _, e := range q {
		for _, r := range e.reqs {
			r.done <- ErrCrashed
		}
	}
}

// Recover clears the crashed state, making the device usable again. Durable
// data persists across Crash/Recover, as on a real disk.
func (d *Device) Recover() {
	d.mu.Lock()
	d.crashed = false
	d.mu.Unlock()
}

// Close shuts the device down after draining the queue.
func (d *Device) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	d.cond.Broadcast()
	d.mu.Unlock()
	d.wg.Wait()
}

// rawStats reads the monotonic counters.
func (d *Device) rawStats() Stats {
	return Stats{
		Submitted:   d.nSubmitted.Load(),
		Dispatched:  d.nDispatch.Load(),
		Merged:      d.nMerged.Load(),
		Seeks:       d.nSeeks.Load(),
		SeekBytes:   d.seekBytes.Load(),
		BytesRead:   d.bytesRead.Load(),
		BytesWrite:  d.bytesWrite.Load(),
		BusyTime:    d.busy.Total(),
		QueueLen:    d.queueLen.Load(),
		MeanLatency: d.latency.Mean(),
	}
}

// Stats returns a snapshot of the device counters since the last ResetStats.
func (d *Device) Stats() Stats {
	s := d.rawStats()
	d.baseMu.Lock()
	b := d.base
	d.baseMu.Unlock()
	s.Submitted -= b.Submitted
	s.Dispatched -= b.Dispatched
	s.Merged -= b.Merged
	s.Seeks -= b.Seeks
	s.SeekBytes -= b.SeekBytes
	s.BytesRead -= b.BytesRead
	s.BytesWrite -= b.BytesWrite
	s.BusyTime -= b.BusyTime
	return s
}

// ResetStats zeroes the counters as seen through Stats. The experiment
// harness calls this between warm-up and the measured phase.
func (d *Device) ResetStats() {
	s := d.rawStats()
	d.baseMu.Lock()
	d.base = s
	d.baseMu.Unlock()
}

// RegisterMetrics exposes the device counters in a metrics registry, labeled
// by device ID. Raw monotonic values are exported (ResetStats does not
// affect them); rate consumers diff snapshots instead.
func (d *Device) RegisterMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	l := obs.Labels{"dev": fmt.Sprintf("%d", d.cfg.ID)}
	r.CounterFunc("redbud_dev_submitted_total", "I/O requests submitted", l, d.nSubmitted.Load)
	r.CounterFunc("redbud_dev_dispatched_total", "elevator dispatches issued", l, d.nDispatch.Load)
	r.CounterFunc("redbud_dev_merged_total", "requests absorbed by elevator merging", l, d.nMerged.Load)
	r.CounterFunc("redbud_dev_seeks_total", "dispatches requiring head movement", l, d.nSeeks.Load)
	r.CounterFunc("redbud_dev_seek_bytes_total", "total absolute head movement in bytes", l, d.seekBytes.Load)
	r.CounterFunc("redbud_dev_read_bytes_total", "bytes read from media", l, d.bytesRead.Load)
	r.CounterFunc("redbud_dev_written_bytes_total", "bytes written to media", l, d.bytesWrite.Load)
	r.CounterFunc("redbud_dev_injected_faults_total", "injected write faults fired", l, d.nFaults.Load)
	r.CounterFunc("redbud_dev_busy_ns_total", "cumulative head busy time in nanoseconds", l,
		func() int64 { return int64(d.busy.Total()) })
	r.GaugeFunc("redbud_dev_queue_len", "instantaneous elevator queue length", l, d.queueLen.Load)
}

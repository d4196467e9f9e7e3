package client

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"redbud/internal/core"
	"redbud/internal/fsapi"
	"redbud/internal/meta"
	"redbud/internal/obs"
	"redbud/internal/proto"
)

// maxCachedPages bounds each file's page cache; once the file quiesces
// (no in-flight writes) an oversized cache is dropped. The data is already
// durable on the shared array at that point and reads re-fetch it, so this
// is purely a memory bound ("drop-behind").
const maxCachedPages = 1024

// fileState is the client-side inode: shared by every open handle of a file.
type fileState struct {
	id   meta.FileID
	mu   sync.Mutex
	cond *sync.Cond

	size          int64 // local view, includes uncommitted writes
	committedSize int64 // as last acknowledged by the MDS
	mtime         time.Time

	// extents is the locally known layout, sorted by FileOff: MDS-granted
	// extents plus delegation-carved ones.
	extents []meta.Extent
	// pages caches file data at PageSize granularity.
	pages map[int64][]byte

	pendingWrites int    // in-flight device writes
	writeGen      uint64 // bumped by every write (read-ahead race guard)
	raNext        int64  // expected offset of the next sequential read
	raInflight    bool   // a prefetch is running
	writeErr      error
	commitErr     error
	dirtyMeta     bool   // something to commit
	commitGen     uint64 // bumped by every finished commit
	refs          int
	enqAt         time.Time // first enqueue of the current queue residency (tracing)
}

func newFileState(id meta.FileID, size int64) *fileState {
	fs := &fileState{id: id, size: size, committedSize: size, pages: make(map[int64][]byte)}
	fs.cond = sync.NewCond(&fs.mu)
	return fs
}

// waitWritesLocked blocks until in-flight device writes finish. Caller holds
// fs.mu.
func (fs *fileState) waitWritesLocked() {
	for fs.pendingWrites > 0 {
		fs.cond.Wait()
	}
}

// gapsLocked returns sub-ranges of [off, end) not covered by extents.
func (fs *fileState) gapsLocked(off, end int64) [][2]int64 {
	var out [][2]int64
	cur := off
	for _, e := range fs.extents {
		if e.End() <= cur {
			continue
		}
		if e.FileOff >= end {
			break
		}
		if e.FileOff > cur {
			out = append(out, [2]int64{cur, e.FileOff})
		}
		if e.End() > cur {
			cur = e.End()
		}
	}
	if cur < end {
		out = append(out, [2]int64{cur, end})
	}
	return out
}

// overlapsKnownLocked reports whether e overlaps any locally known extent.
func (fs *fileState) overlapsKnownLocked(e meta.Extent) bool {
	for _, have := range fs.extents {
		if e.FileOff < have.End() && have.FileOff < e.End() {
			return true
		}
	}
	return false
}

// insertExtentLocked merges a new extent, skipping overlaps with known ones.
func (fs *fileState) insertExtentLocked(e meta.Extent) {
	if fs.overlapsKnownLocked(e) {
		return // already covered (MDS reuses extents on overwrite)
	}
	i := 0
	for i < len(fs.extents) && fs.extents[i].FileOff < e.FileOff {
		i++
	}
	fs.extents = append(fs.extents, meta.Extent{})
	copy(fs.extents[i+1:], fs.extents[i:])
	fs.extents[i] = e
}

// cachePagesLocked stores the covered pages of [off, off+len(p)) and patches
// partially covered pages that are already cached. An uncached partially
// covered page is cached only when the uncovered remainder lies beyond the
// current end of file — those bytes are genuinely zero, so no data is
// fabricated. Other uncached partial pages are written through: caching them
// would invent zeros over real on-disk data. The new pages of one write are
// carved from a single slab, sized exactly to them.
func (fs *fileState) cachePagesLocked(p []byte, off int64) {
	end := off + int64(len(p))
	first, last := off/PageSize, (end-1)/PageSize
	// fresh reports whether uncached page pg gets cached by this write:
	// fully covered, or covered from its start up to past the end of file.
	fresh := func(pg int64) bool {
		pstart, pend := pg*PageSize, (pg+1)*PageSize
		cend := min64(pend, end)
		return off <= pstart && (cend == pend || cend >= fs.size)
	}
	var n int
	for pg := first; pg <= last; pg++ {
		if fs.pages[pg] == nil && fresh(pg) {
			n++
		}
	}
	slab := make([]byte, n*PageSize)
	for pg := first; pg <= last; pg++ {
		pstart, pend := pg*PageSize, (pg+1)*PageSize
		cstart, cend := max64(pstart, off), min64(pend, end)
		page := fs.pages[pg]
		if page == nil {
			if !fresh(pg) {
				continue // partial mid-file, uncached: write through
			}
			page, slab = slab[:PageSize:PageSize], slab[PageSize:]
			fs.pages[pg] = page
		}
		copy(page[cstart-pstart:cend-pstart], p[cstart-off:cend-off])
	}
}

// dropCacheIfOversizedLocked implements drop-behind.
func (fs *fileState) dropCacheIfOversizedLocked() {
	if fs.pendingWrites == 0 && len(fs.pages) > maxCachedPages {
		fs.pages = make(map[int64][]byte)
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// File is an open handle implementing fsapi.File.
type File struct {
	c      *Client
	fs     *fileState
	closed bool
	mu     sync.Mutex
}

var _ fsapi.File = (*File)(nil)

// devWrite is one planned device I/O.
type devWrite struct {
	dev    uint32
	volOff int64
	data   []byte
}

// WriteAt implements the update operation: data into the cache and out to
// the shared array asynchronously; metadata committed per the client's mode.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if off < 0 {
		return 0, fmt.Errorf("client: negative offset %d", off)
	}
	c, fs := f.c, f.fs
	start := c.clk.Now()
	end := off + int64(len(p))

	fs.mu.Lock()
	if err := fs.writeErr; err != nil {
		fs.mu.Unlock()
		return 0, err
	}
	// 1. Ensure extents cover the range, preferring delegated space.
	if err := c.ensureExtents(fs, off, end); err != nil {
		fs.mu.Unlock()
		return 0, err
	}
	// 2. Page cache.
	fs.cachePagesLocked(p, off)
	if end > fs.size {
		fs.size = end
	}
	fs.mtime = c.clk.Now()
	fs.dirtyMeta = true
	fs.writeGen++
	// 3. Plan the writepage calls.
	writes, err := c.planIO(fs, p, off)
	if err != nil {
		fs.mu.Unlock()
		return 0, err
	}
	fs.pendingWrites += len(writes)
	fs.mu.Unlock()

	// 4. Issue writepage to the storage devices (asynchronously).
	for _, w := range writes {
		dev, err := c.dev(w.dev)
		if err != nil {
			fs.mu.Lock()
			fs.pendingWrites--
			fs.writeErr = err
			fs.cond.Broadcast()
			fs.mu.Unlock()
			continue
		}
		ch := dev.WriteAsync(w.volOff, w.data)
		go func() {
			werr := <-ch
			fs.mu.Lock()
			fs.pendingWrites--
			if werr != nil && fs.writeErr == nil {
				fs.writeErr = werr
			}
			fs.dropCacheIfOversizedLocked()
			fs.cond.Broadcast()
			fs.mu.Unlock()
		}()
	}

	// 5. Hand the ordering obligation over (delayed) or carry it here
	//    (sync).
	c.st.writes.Inc()
	c.st.bytesWritten.Add(int64(len(p)))
	var werr error
	if c.cfg.Mode == SyncCommit {
		fs.mu.Lock()
		fs.waitWritesLocked() // the spin-until-durable barrier of §III-A
		werr = fs.writeErr
		fs.mu.Unlock()
		if werr == nil {
			werr = c.commitFile(fs)
		}
	} else {
		werr = c.enqueueCommit(fs)
	}
	if c.tracer.Enabled() {
		c.tracer.Record(c.trackApp, obs.SpanAppWrite, 0, start, c.clk.Now())
	}
	c.st.writeLat.Observe(c.clk.Since(start))
	if werr != nil {
		return 0, werr
	}
	return len(p), nil
}

// ensureExtents covers [off, end) with extents, allocating from the
// delegation pool when possible, otherwise via a layout-get RPC. Caller
// holds fs.mu; the MDS path drops and reacquires it.
func (c *Client) ensureExtents(fs *fileState, off, end int64) error {
	holes := fs.gapsLocked(off, end)
	if len(holes) == 0 {
		return nil
	}
	if pool := c.spacePool(); pool != nil {
		remaining := holes[:0]
		for _, h := range holes {
			sp, err := pool.Alloc(h[1] - h[0])
			if err != nil {
				if errors.Is(err, core.ErrTooLarge) {
					remaining = append(remaining, h)
					continue
				}
				return err
			}
			fs.insertExtentLocked(meta.Extent{
				FileOff: h[0], Len: sp.Len, Dev: uint32(sp.Dev), VolOff: sp.Off,
				State: meta.StateUncommitted,
			})
		}
		holes = remaining
	}
	if len(holes) == 0 {
		return nil
	}
	// Large (or undelegated) ranges apply to the MDS directly.
	fs.mu.Unlock()
	var lay proto.LayoutResp
	// Idempotent retry is safe: re-allocating the same range returns the
	// extents the first attempt created.
	err := c.callIdem(c.shardFor(fs.id), proto.OpLayoutGet, &proto.LayoutGetReq{
		Owner: c.cfg.Name, File: fs.id, Off: off, Len: end - off, Flags: meta.LayoutWrite,
	}, &lay)
	fs.mu.Lock()
	if err != nil {
		return mapRemote(err)
	}
	for _, e := range lay.Extents {
		fs.insertExtentLocked(e)
	}
	if rest := fs.gapsLocked(off, end); len(rest) > 0 {
		return fmt.Errorf("client: layout for file %d leaves %d holes", fs.id, len(rest))
	}
	return nil
}

// planIO maps [off, off+len(p)) onto device writes via the extent list.
// Caller holds fs.mu.
func (c *Client) planIO(fs *fileState, p []byte, off int64) ([]devWrite, error) {
	end := off + int64(len(p))
	var out []devWrite
	for _, e := range fs.extents {
		if e.End() <= off {
			continue
		}
		if e.FileOff >= end {
			break
		}
		s, t := max64(e.FileOff, off), min64(e.End(), end)
		out = append(out, devWrite{
			dev:    e.Dev,
			volOff: e.VolOff + (s - e.FileOff),
			data:   p[s-off : t-off],
		})
	}
	var covered int64
	for _, w := range out {
		covered += int64(len(w.data))
	}
	if covered != int64(len(p)) {
		return nil, fmt.Errorf("client: write plan covers %d of %d bytes", covered, len(p))
	}
	return out, nil
}

// Append writes at the end of file, returning the offset written.
func (f *File) Append(p []byte) (int64, error) {
	fs := f.fs
	fs.mu.Lock()
	off := fs.size
	fs.size = off + int64(len(p)) // reserve to serialize concurrent appends
	fs.mu.Unlock()
	if _, err := f.WriteAt(p, off); err != nil {
		return 0, err
	}
	return off, nil
}

// ReadAt serves reads from the page cache, falling back to the shared array
// through the extent map; holes read as zeros. Reads of this client's own
// uncommitted writes are satisfied locally (conflict reads, §V-C NPB).
//
// With EarlyVisibility on (and protocol v2 negotiated), a conflict read
// that finds layout holes — or reaches past the locally known size — asks
// the MDS for uncommitted extents too: other clients' published write
// intents, served directly from the devices instead of stalling until the
// writer's commit lands.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	c, fs := f.c, f.fs
	if off < 0 {
		return 0, fmt.Errorf("client: negative offset %d", off)
	}
	wantVis := c.earlyVisible()
	fs.mu.Lock()
	limit := fs.size
	reqEnd := off + int64(len(p))

	// vis holds other writers' uncommitted extents, for this call only.
	// They must never enter fs.extents: the commit builder sweeps every
	// uncommitted extent it finds there, and a reader must neither commit
	// a foreign writer's intent nor cache it past its possible rollback.
	var vis []meta.Extent

	// Decide whether to consult the MDS before serving locally: part of
	// the in-bounds range is neither cached nor covered by known extents.
	probe := false
	if len(fs.uncachedRanges(off, min64(reqEnd, limit))) > 0 {
		if holes := fs.gapsLocked(off, min64(reqEnd, limit)); len(holes) > 0 && (fs.committedSizeMayCover(holes) || wantVis) {
			probe = true
		}
	}
	if wantVis && reqEnd > limit {
		probe = true // the file may have grown via a visible intent
	}
	if off >= limit && !probe {
		fs.mu.Unlock()
		return 0, nil
	}
	if probe {
		flags := meta.LayoutFlags(0)
		if wantVis {
			flags |= meta.LayoutWantUncommitted
		}
		fs.mu.Unlock()
		var lay proto.LayoutResp
		err := c.callIdem(c.shardFor(fs.id), proto.OpLayoutGet, &proto.LayoutGetReq{
			Owner: c.cfg.Name, File: fs.id, Off: off, Len: reqEnd - off, Flags: flags,
		}, &lay)
		fs.mu.Lock()
		if err != nil {
			fs.mu.Unlock()
			return 0, mapRemote(err)
		}
		for _, e := range lay.Extents {
			if e.State == meta.StateCommitted {
				fs.insertExtentLocked(e)
			} else if !fs.overlapsKnownLocked(e) {
				vis = append(vis, e)
			}
		}
		if wantVis {
			// lay.Size is the visible size (committed size plus published
			// intents): it bounds this read but is not a committed size.
			if lay.Size > limit {
				limit = lay.Size
			}
		} else if lay.Size > fs.committedSize {
			fs.committedSize = lay.Size
		}
	}
	if off >= limit {
		fs.mu.Unlock()
		return 0, nil
	}
	n := min64(int64(len(p)), limit-off)
	end := off + n

	missing := fs.uncachedRanges(off, end)
	if len(missing) > 0 {
		// Device reads must observe completed writes: quiesce first.
		fs.waitWritesLocked()
		missing = fs.uncachedRanges(off, end)
	}
	// Snapshot what each missing range maps to: the known layout plus this
	// call's transient uncommitted extents.
	type fetch struct {
		dev         uint32
		volOff      int64
		fileOff, ln int64
	}
	var fetches []fetch
	for _, m := range missing {
		for _, exts := range [][]meta.Extent{fs.extents, vis} {
			for _, e := range exts {
				if e.End() <= m[0] || e.FileOff >= m[1] {
					continue
				}
				s, t := max64(e.FileOff, m[0]), min64(e.End(), m[1])
				fetches = append(fetches, fetch{dev: e.Dev, volOff: e.VolOff + (s - e.FileOff), fileOff: s, ln: t - s})
			}
		}
	}
	// Copy the cached portion while still locked.
	for i := int64(0); i < n; {
		pg := (off + i) / PageSize
		pstart := pg * PageSize
		cstart := off + i
		cend := min64(pstart+PageSize, end)
		if page := fs.pages[pg]; page != nil {
			copy(p[cstart-off:cend-off], page[cstart-pstart:cend-pstart])
		} else {
			for j := cstart; j < cend; j++ {
				p[j-off] = 0 // holes and to-be-fetched: zero first
			}
		}
		i = cend - off
	}
	fs.mu.Unlock()

	// Issue device reads outside the lock.
	for _, ft := range fetches {
		dev, err := c.dev(ft.dev)
		if err != nil {
			return 0, err
		}
		data, err := dev.Read(ft.volOff, ft.ln)
		if err != nil {
			return 0, err
		}
		copy(p[ft.fileOff-off:ft.fileOff-off+ft.ln], data)
	}
	c.st.reads.Inc()
	c.st.bytesRead.Add(n)
	c.maybeReadAhead(fs, off, n)
	return int(n), nil
}

// uncachedRanges returns the sub-ranges of [off, end) not fully served by
// cached pages. Caller holds fs.mu.
func (fs *fileState) uncachedRanges(off, end int64) [][2]int64 {
	var out [][2]int64
	cur := int64(-1)
	for pg := off / PageSize; pg*PageSize < end; pg++ {
		pstart := max64(pg*PageSize, off)
		if fs.pages[pg] == nil {
			if cur < 0 {
				cur = pstart
			}
		} else if cur >= 0 {
			out = append(out, [2]int64{cur, pstart})
			cur = -1
		}
	}
	if cur >= 0 {
		out = append(out, [2]int64{cur, end})
	}
	return out
}

// committedSizeMayCover reports whether any hole could be backed by
// committed data at the MDS (otherwise the layout RPC is pointless).
func (fs *fileState) committedSizeMayCover(holes [][2]int64) bool {
	for _, h := range holes {
		if h[0] < fs.committedSize {
			return true
		}
	}
	return false
}

// Size returns the handle's view of the file size.
func (f *File) Size() int64 {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return f.fs.size
}

// Sync flushes data and forces an immediate synchronous commit — the escape
// hatch the paper prescribes for applications that cannot afford the delayed
// window ("applications that cannot afford data loss should explicitly call
// fsync", §III-A).
func (f *File) Sync() error {
	f.c.st.fsyncs.Inc()
	if err := f.c.commitFile(f.fs); err != nil {
		return err
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return f.fs.commitErr
}

// Close releases the handle. Under delayed commit it returns immediately —
// pending commits continue in the background (the close-latency win of
// §V-C); under sync commit everything is already durable.
func (f *File) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return fsapi.ErrClosed
	}
	f.closed = true
	f.mu.Unlock()
	start := f.c.clk.Now()
	f.fs.mu.Lock()
	f.fs.refs--
	err := f.fs.writeErr
	f.fs.mu.Unlock()
	f.c.st.closes.Inc()
	f.c.st.closeLat.Observe(f.c.clk.Since(start))
	return err
}

// Package pvfs2 is the PVFS2/OrangeFS-like comparator of Figure 3: a
// user-level parallel file system with one metadata server and several data
// servers. Clients keep no cache; every operation is synchronous; file data
// travels over the Ethernet to the data servers (no direct-attached FC path,
// unlike Redbud), striped round-robin in 64 KiB units.
//
// Its redeeming strength — the one the paper measures on NPB BT-IO — is
// MPI-IO-style collective I/O: WriteCollective aggregates many small
// interleaved rank blocks into large stripe-aligned transfers issued to all
// data servers in parallel (two-phase I/O).
package pvfs2

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"redbud/internal/alloc"
	"redbud/internal/blockdev"
	"redbud/internal/clock"
	"redbud/internal/fsapi"
	"redbud/internal/netsim"
	"redbud/internal/rpc"
	"redbud/internal/wire"
)

// StripeUnit is the striping granularity.
const StripeUnit = 64 << 10

// Metadata server ops.
const (
	opLookup uint16 = iota + 1
	opCreate
	opMkdir
	opRemove
	opGetAttr
	opReadDir
	opSetSize
	opRename
)

// Data server ops.
const (
	opDataWrite uint16 = iota + 101
	opDataRead
	opDataRemove
)

// ---------------------------------------------------------------------------
// Wire messages (shared shapes with nfs3 kept local: the protocols differ).

type nameReq struct {
	Parent uint64
	Name   string
}

func (m *nameReq) MarshalWire(b *wire.Buffer) { b.PutU64(m.Parent); b.PutString(m.Name) }
func (m *nameReq) UnmarshalWire(r *wire.Reader) error {
	m.Parent = r.U64()
	m.Name = r.String()
	return r.Err()
}

type attrResp struct {
	ID   uint64
	Dir  bool
	Size int64
	MT   time.Time
}

func (m *attrResp) MarshalWire(b *wire.Buffer) {
	b.PutU64(m.ID)
	b.PutBool(m.Dir)
	b.PutI64(m.Size)
	b.PutTime(m.MT)
}

func (m *attrResp) UnmarshalWire(r *wire.Reader) error {
	m.ID = r.U64()
	m.Dir = r.Bool()
	m.Size = r.I64()
	m.MT = r.Time()
	return r.Err()
}

type renameReq struct {
	SrcParent uint64
	SrcName   string
	DstParent uint64
	DstName   string
}

func (m *renameReq) MarshalWire(b *wire.Buffer) {
	b.PutU64(m.SrcParent)
	b.PutString(m.SrcName)
	b.PutU64(m.DstParent)
	b.PutString(m.DstName)
}

func (m *renameReq) UnmarshalWire(r *wire.Reader) error {
	m.SrcParent = r.U64()
	m.SrcName = r.String()
	m.DstParent = r.U64()
	m.DstName = r.String()
	return r.Err()
}

type handleReq struct{ ID uint64 }

func (m *handleReq) MarshalWire(b *wire.Buffer)         { b.PutU64(m.ID) }
func (m *handleReq) UnmarshalWire(r *wire.Reader) error { m.ID = r.U64(); return r.Err() }

type setSizeReq struct {
	ID   uint64
	Size int64
}

func (m *setSizeReq) MarshalWire(b *wire.Buffer) { b.PutU64(m.ID); b.PutI64(m.Size) }
func (m *setSizeReq) UnmarshalWire(r *wire.Reader) error {
	m.ID = r.U64()
	m.Size = r.I64()
	return r.Err()
}

type readDirResp struct {
	Names []string
	Dirs  []bool
}

func (m *readDirResp) MarshalWire(b *wire.Buffer) {
	b.PutU32(uint32(len(m.Names)))
	for i := range m.Names {
		b.PutString(m.Names[i])
		b.PutBool(m.Dirs[i])
	}
}

func (m *readDirResp) UnmarshalWire(r *wire.Reader) error {
	n := int(r.U32())
	for i := 0; i < n && r.Err() == nil; i++ {
		m.Names = append(m.Names, r.String())
		m.Dirs = append(m.Dirs, r.Bool())
	}
	return r.Err()
}

type dataWriteReq struct {
	File uint64
	Off  int64 // file-global offset
	Data []byte
}

func (m *dataWriteReq) MarshalWire(b *wire.Buffer) {
	b.PutU64(m.File)
	b.PutI64(m.Off)
	b.PutBytes(m.Data)
}

func (m *dataWriteReq) UnmarshalWire(r *wire.Reader) error {
	m.File = r.U64()
	m.Off = r.I64()
	// Zero-copy: decoded server-side only; the data-server handler writes
	// Data through blockdev.Device.Write (which copies into the device
	// queue) before returning the pooled frame.
	m.Data = r.BytesRef() //lint:allow wirealias — disk.Write copies before the handler returns
	return r.Err()
}

type dataReadReq struct {
	File uint64
	Off  int64
	N    int64
}

func (m *dataReadReq) MarshalWire(b *wire.Buffer) {
	b.PutU64(m.File)
	b.PutI64(m.Off)
	b.PutI64(m.N)
}

func (m *dataReadReq) UnmarshalWire(r *wire.Reader) error {
	m.File = r.U64()
	m.Off = r.I64()
	m.N = r.I64()
	return r.Err()
}

type dataResp struct{ Data []byte }

func (m *dataResp) MarshalWire(b *wire.Buffer) { b.PutBytes(m.Data) }

// UnmarshalWire must copy: decoded client-side, Data escapes to the reader
// while rpc.Client recycles the response frame right after wire.Decode.
func (m *dataResp) UnmarshalWire(r *wire.Reader) error { m.Data = r.Bytes(); return r.Err() }

// ---------------------------------------------------------------------------
// Metadata server

type mfile struct {
	id    uint64
	dir   bool
	size  int64
	mtime time.Time
}

// MetaServer is the PVFS2 metadata server.
type MetaServer struct {
	clk clock.Clock
	rpc *rpc.Server

	mu      sync.Mutex
	files   map[uint64]*mfile
	dirents map[uint64]map[string]uint64
	nextID  uint64
}

// NewMetaServer builds the metadata server.
func NewMetaServer(clk clock.Clock, daemons int, opCost time.Duration) *MetaServer {
	if clk == nil {
		clk = clock.Real(1)
	}
	if daemons <= 0 {
		daemons = 8
	}
	s := &MetaServer{
		clk:     clk,
		files:   map[uint64]*mfile{1: {id: 1, dir: true, mtime: clk.Now()}},
		dirents: map[uint64]map[string]uint64{1: {}},
		nextID:  2,
	}
	s.rpc = rpc.NewServer(rpc.ServerConfig{Handler: rpc.Sync(s.handle), Daemons: daemons, OpCost: opCost, Clock: clk})
	return s
}

// Serve accepts connections until the listener closes.
func (s *MetaServer) Serve(l *netsim.Listener) { s.rpc.Serve(l) }

// Close stops the server.
func (s *MetaServer) Close() { s.rpc.Close() }

func (s *MetaServer) handle(op uint16, body []byte) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch op {
	case opLookup:
		var req nameReq
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		id, ok := s.dirents[req.Parent][req.Name]
		if !ok {
			return nil, fmt.Errorf("pvfs2: %q not found", req.Name)
		}
		f := s.files[id]
		return wire.Encode(&attrResp{ID: id, Dir: f.dir, Size: f.size, MT: f.mtime}), nil
	case opCreate, opMkdir:
		var req nameReq
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		dir, ok := s.dirents[req.Parent]
		if !ok {
			return nil, errors.New("pvfs2: stale parent")
		}
		if _, dup := dir[req.Name]; dup {
			return nil, fmt.Errorf("pvfs2: %q already exists", req.Name)
		}
		id := s.nextID
		s.nextID++
		f := &mfile{id: id, dir: op == opMkdir, mtime: s.clk.Now()}
		s.files[id] = f
		dir[req.Name] = id
		if f.dir {
			s.dirents[id] = map[string]uint64{}
		}
		return wire.Encode(&attrResp{ID: id, Dir: f.dir, MT: f.mtime}), nil
	case opRemove:
		var req nameReq
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		dir, ok := s.dirents[req.Parent]
		if !ok {
			return nil, errors.New("pvfs2: stale parent")
		}
		id, ok := dir[req.Name]
		if !ok {
			return nil, fmt.Errorf("pvfs2: %q not found", req.Name)
		}
		if s.files[id].dir && len(s.dirents[id]) > 0 {
			return nil, fmt.Errorf("pvfs2: %q not empty", req.Name)
		}
		delete(dir, req.Name)
		delete(s.files, id)
		delete(s.dirents, id)
		return nil, nil
	case opGetAttr:
		var req handleReq
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		f, ok := s.files[req.ID]
		if !ok {
			return nil, errors.New("pvfs2: stale handle")
		}
		return wire.Encode(&attrResp{ID: f.id, Dir: f.dir, Size: f.size, MT: f.mtime}), nil
	case opReadDir:
		var req handleReq
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		dir, ok := s.dirents[req.ID]
		if !ok {
			return nil, errors.New("pvfs2: stale handle")
		}
		var resp readDirResp
		for name, id := range dir {
			resp.Names = append(resp.Names, name)
			resp.Dirs = append(resp.Dirs, s.files[id].dir)
		}
		return wire.Encode(&resp), nil
	case opSetSize:
		var req setSizeReq
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		f, ok := s.files[req.ID]
		if !ok {
			return nil, errors.New("pvfs2: stale handle")
		}
		if req.Size > f.size {
			f.size = req.Size
		}
		f.mtime = s.clk.Now()
		return nil, nil
	case opRename:
		var req renameReq
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		src, ok := s.dirents[req.SrcParent]
		if !ok {
			return nil, errors.New("pvfs2: stale parent")
		}
		id, ok := src[req.SrcName]
		if !ok {
			return nil, fmt.Errorf("pvfs2: %q not found", req.SrcName)
		}
		dst, ok := s.dirents[req.DstParent]
		if !ok {
			return nil, errors.New("pvfs2: stale parent")
		}
		if _, dup := dst[req.DstName]; dup {
			return nil, fmt.Errorf("pvfs2: %q already exists", req.DstName)
		}
		delete(src, req.SrcName)
		dst[req.DstName] = id
		return nil, nil
	}
	return nil, fmt.Errorf("pvfs2: unknown meta op %d", op)
}

// ---------------------------------------------------------------------------
// Data server

// DataServer is one PVFS2 I/O daemon with a local disk. It stores stripe
// chunks of files, allocating physical space per chunk on first write
// (writes go through to disk — PVFS2 has no server write-back for data).
type DataServer struct {
	disk *blockdev.Device
	ag   *alloc.Group
	rpc  *rpc.Server

	mu     sync.Mutex
	chunks map[uint64]map[int64]alloc.Span // file -> chunk index -> physical
}

// NewDataServer builds a data server over its local disk.
func NewDataServer(disk *blockdev.Device, clk clock.Clock, daemons int) *DataServer {
	if disk == nil {
		panic("pvfs2: nil disk")
	}
	if daemons <= 0 {
		daemons = 8
	}
	s := &DataServer{
		disk:   disk,
		ag:     alloc.NewGroup(disk.ID(), 0, disk.Size()),
		chunks: make(map[uint64]map[int64]alloc.Span),
	}
	s.rpc = rpc.NewServer(rpc.ServerConfig{Handler: rpc.Sync(s.handle), Daemons: daemons, Clock: clk})
	return s
}

// Serve accepts connections until the listener closes.
func (s *DataServer) Serve(l *netsim.Listener) { s.rpc.Serve(l) }

// Close stops the server.
func (s *DataServer) Close() { s.rpc.Close() }

// place returns (allocating if needed) the physical span of a file chunk.
func (s *DataServer) place(file uint64, chunk int64) (alloc.Span, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.chunks[file]
	if m == nil {
		m = make(map[int64]alloc.Span)
		s.chunks[file] = m
	}
	if sp, ok := m[chunk]; ok {
		return sp, nil
	}
	g, err := s.ag.Alloc(StripeUnit, -1)
	if err != nil {
		return alloc.Span{}, err
	}
	sp := alloc.Span{Dev: s.disk.ID(), Off: g.Off, Len: g.Len}
	m[chunk] = sp
	return sp, nil
}

func (s *DataServer) handle(op uint16, body []byte) ([]byte, error) {
	switch op {
	case opDataWrite:
		var req dataWriteReq
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		// The request may span several chunks; write each part through
		// to disk synchronously.
		data, off := req.Data, req.Off
		for len(data) > 0 {
			chunk := off / StripeUnit
			in := off - chunk*StripeUnit
			n := StripeUnit - in
			if int64(len(data)) < n {
				n = int64(len(data))
			}
			sp, err := s.place(req.File, chunk)
			if err != nil {
				return nil, err
			}
			if err := s.disk.Write(sp.Off+in, data[:n]); err != nil {
				return nil, err
			}
			data = data[n:]
			off += n
		}
		return nil, nil
	case opDataRead:
		var req dataReadReq
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		out := make([]byte, req.N)
		got, off := out, req.Off
		for len(got) > 0 {
			chunk := off / StripeUnit
			in := off - chunk*StripeUnit
			n := StripeUnit - in
			if int64(len(got)) < n {
				n = int64(len(got))
			}
			s.mu.Lock()
			sp, ok := s.chunks[req.File][chunk]
			s.mu.Unlock()
			if ok {
				part, err := s.disk.Read(sp.Off+in, n)
				if err != nil {
					return nil, err
				}
				copy(got[:n], part)
			}
			got = got[n:]
			off += n
		}
		return wire.Encode(&dataResp{Data: out}), nil
	case opDataRemove:
		var req handleReq
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		s.mu.Lock()
		for _, sp := range s.chunks[req.ID] {
			_ = s.ag.FreeSpan(sp.Off, sp.Len)
		}
		delete(s.chunks, req.ID)
		s.mu.Unlock()
		return nil, nil
	}
	return nil, fmt.Errorf("pvfs2: unknown data op %d", op)
}

// ---------------------------------------------------------------------------
// Client

// Client is a PVFS2 mount: one connection to the metadata server and one to
// each data server. It implements fsapi.FileSystem.
type Client struct {
	meta *rpc.Client
	data []*rpc.Client

	mu     sync.Mutex
	closed bool
}

var _ fsapi.FileSystem = (*Client)(nil)

// NewClient assembles a mount from established connections. The client owns
// them all.
func NewClient(metaConn netsim.Conn, dataConns []netsim.Conn, clk clock.Clock) *Client {
	if clk == nil {
		clk = clock.Real(1)
	}
	c := &Client{meta: rpc.NewClient(metaConn, clk)}
	for _, conn := range dataConns {
		c.data = append(c.data, rpc.NewClient(conn, clk))
	}
	if len(c.data) == 0 {
		panic("pvfs2: need at least one data server")
	}
	return c
}

// serverFor maps a file offset to its data server.
func (c *Client) serverFor(off int64) *rpc.Client {
	return c.data[(off/StripeUnit)%int64(len(c.data))]
}

func (c *Client) resolve(path string) (attrResp, error) {
	cur := attrResp{ID: 1, Dir: true}
	for _, name := range fsapi.SplitPath(path) {
		var next attrResp
		if err := c.meta.Call(opLookup, &nameReq{Parent: cur.ID, Name: name}, &next); err != nil {
			return attrResp{}, mapErr(err)
		}
		cur = next
	}
	return cur, nil
}

func (c *Client) resolveParent(path string) (uint64, string, error) {
	parts := fsapi.SplitPath(path)
	if len(parts) == 0 {
		return 0, "", fmt.Errorf("pvfs2: invalid path %q", path)
	}
	parent := uint64(1)
	if len(parts) > 1 {
		dirPath := ""
		for _, p := range parts[:len(parts)-1] {
			dirPath += "/" + p
		}
		a, err := c.resolve(dirPath)
		if err != nil {
			return 0, "", err
		}
		parent = a.ID
	}
	return parent, parts[len(parts)-1], nil
}

func mapErr(err error) error {
	var re *rpc.RemoteError
	if errors.As(err, &re) {
		switch {
		case contains(re.Message, "not found"):
			return fmt.Errorf("%w: %s", fsapi.ErrNotExist, re.Message)
		case contains(re.Message, "already exists"):
			return fmt.Errorf("%w: %s", fsapi.ErrExist, re.Message)
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

// Create makes and opens a file.
func (c *Client) Create(path string) (fsapi.File, error) {
	parent, leaf, err := c.resolveParent(path)
	if err != nil {
		return nil, err
	}
	var a attrResp
	if err := c.meta.Call(opCreate, &nameReq{Parent: parent, Name: leaf}, &a); err != nil {
		return nil, mapErr(err)
	}
	return &file{c: c, id: a.ID}, nil
}

// Open opens an existing file.
func (c *Client) Open(path string) (fsapi.File, error) {
	a, err := c.resolve(path)
	if err != nil {
		return nil, err
	}
	if a.Dir {
		return nil, fmt.Errorf("%w: %s", fsapi.ErrIsDir, path)
	}
	return &file{c: c, id: a.ID, size: a.Size}, nil
}

// Mkdir creates a directory.
func (c *Client) Mkdir(path string) error {
	parent, leaf, err := c.resolveParent(path)
	if err != nil {
		return err
	}
	var a attrResp
	return mapErr(c.meta.Call(opMkdir, &nameReq{Parent: parent, Name: leaf}, &a))
}

// Remove unlinks a path on the metadata server and frees its stripes.
func (c *Client) Remove(path string) error {
	a, err := c.resolve(path)
	if err != nil {
		return err
	}
	parent, leaf, err := c.resolveParent(path)
	if err != nil {
		return err
	}
	if err := c.meta.Call(opRemove, &nameReq{Parent: parent, Name: leaf}, nil); err != nil {
		return mapErr(err)
	}
	if !a.Dir {
		for _, ds := range c.data {
			_ = ds.Call(opDataRemove, &handleReq{ID: a.ID}, nil)
		}
	}
	return nil
}

// Rename moves a directory entry on the metadata server.
func (c *Client) Rename(oldPath, newPath string) error {
	srcParent, srcLeaf, err := c.resolveParent(oldPath)
	if err != nil {
		return err
	}
	dstParent, dstLeaf, err := c.resolveParent(newPath)
	if err != nil {
		return err
	}
	return mapErr(c.meta.Call(opRename, &renameReq{
		SrcParent: srcParent, SrcName: srcLeaf,
		DstParent: dstParent, DstName: dstLeaf,
	}, nil))
}

// Stat describes a path.
func (c *Client) Stat(path string) (fsapi.Info, error) {
	a, err := c.resolve(path)
	if err != nil {
		return fsapi.Info{}, err
	}
	parts := fsapi.SplitPath(path)
	name := "/"
	if len(parts) > 0 {
		name = parts[len(parts)-1]
	}
	return fsapi.Info{Name: name, Size: a.Size, Dir: a.Dir, MTime: a.MT}, nil
}

// ReadDir lists a directory.
func (c *Client) ReadDir(path string) ([]fsapi.Info, error) {
	a, err := c.resolve(path)
	if err != nil {
		return nil, err
	}
	var resp readDirResp
	if err := c.meta.Call(opReadDir, &handleReq{ID: a.ID}, &resp); err != nil {
		return nil, mapErr(err)
	}
	out := make([]fsapi.Info, 0, len(resp.Names))
	for i := range resp.Names {
		out = append(out, fsapi.Info{Name: resp.Names[i], Dir: resp.Dirs[i]})
	}
	return out, nil
}

// Close unmounts.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fsapi.ErrClosed
	}
	c.closed = true
	c.meta.Close()
	for _, d := range c.data {
		d.Close()
	}
	return nil
}

// RPCs returns the total RPCs issued across all connections.
func (c *Client) RPCs() int64 {
	total := c.meta.Calls()
	for _, d := range c.data {
		total += d.Calls()
	}
	return total
}

// file is an open PVFS2 file.
type file struct {
	c    *Client
	id   uint64
	mu   sync.Mutex
	size int64
}

// stripeSegments splits [off, off+len(p)) at stripe-unit boundaries.
type segment struct {
	off  int64
	data []byte
}

func splitStripes(p []byte, off int64) []segment {
	var out []segment
	for len(p) > 0 {
		chunkEnd := (off/StripeUnit + 1) * StripeUnit
		n := chunkEnd - off
		if int64(len(p)) < n {
			n = int64(len(p))
		}
		out = append(out, segment{off: off, data: p[:n]})
		p = p[n:]
		off += n
	}
	return out
}

// WriteAt stripes the range across the data servers, issuing the segments in
// parallel, then synchronously updates the file size at the MDS. No client
// cache: the call returns only when every server acknowledged.
func (f *file) WriteAt(p []byte, off int64) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	segs := splitStripes(p, off)
	errs := make(chan error, len(segs))
	for _, sg := range segs {
		go func() {
			errs <- f.c.serverFor(sg.off).Call(opDataWrite, &dataWriteReq{File: f.id, Off: sg.off, Data: sg.data}, nil)
		}()
	}
	for range segs {
		if err := <-errs; err != nil {
			return 0, mapErr(err)
		}
	}
	end := off + int64(len(p))
	if err := f.c.meta.Call(opSetSize, &setSizeReq{ID: f.id, Size: end}, nil); err != nil {
		return 0, mapErr(err)
	}
	f.mu.Lock()
	if end > f.size {
		f.size = end
	}
	f.mu.Unlock()
	return len(p), nil
}

// WriteCollective is the MPI-IO two-phase path: the blocks are sorted and
// coalesced into large contiguous segments before striping, so interleaved
// small rank blocks become few big parallel transfers.
func (f *file) WriteCollective(blocks []fsapi.CollectiveBlock) error {
	if len(blocks) == 0 {
		return nil
	}
	sorted := make([]fsapi.CollectiveBlock, len(blocks))
	copy(sorted, blocks)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Off < sorted[j].Off })
	// Coalesce contiguous runs.
	var runs []fsapi.CollectiveBlock
	cur := fsapi.CollectiveBlock{Off: sorted[0].Off, Data: append([]byte(nil), sorted[0].Data...)}
	for _, b := range sorted[1:] {
		if b.Off == cur.Off+int64(len(cur.Data)) {
			cur.Data = append(cur.Data, b.Data...)
		} else {
			runs = append(runs, cur)
			cur = fsapi.CollectiveBlock{Off: b.Off, Data: append([]byte(nil), b.Data...)}
		}
	}
	runs = append(runs, cur)
	for _, run := range runs {
		if _, err := f.WriteAt(run.Data, run.Off); err != nil {
			return err
		}
	}
	return nil
}

// ReadAt reads stripes in parallel.
func (f *file) ReadAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	size := f.size
	f.mu.Unlock()
	if off >= size {
		return 0, nil
	}
	n := int64(len(p))
	if off+n > size {
		n = size - off
	}
	segs := splitStripes(p[:n], off)
	errs := make(chan error, len(segs))
	for _, sg := range segs {
		go func() {
			var resp dataResp
			err := f.c.serverFor(sg.off).Call(opDataRead, &dataReadReq{File: f.id, Off: sg.off, N: int64(len(sg.data))}, &resp)
			if err == nil {
				copy(sg.data, resp.Data)
			}
			errs <- err
		}()
	}
	for range segs {
		if err := <-errs; err != nil {
			return 0, mapErr(err)
		}
	}
	return int(n), nil
}

func (f *file) Append(p []byte) (int64, error) {
	f.mu.Lock()
	off := f.size
	f.size = off + int64(len(p))
	f.mu.Unlock()
	if _, err := f.WriteAt(p, off); err != nil {
		return 0, err
	}
	return off, nil
}

func (f *file) Size() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.size
}

// Sync is a no-op: PVFS2 writes are already through to the data servers'
// disks when WriteAt returns.
func (f *file) Sync() error { return nil }

// Close releases the handle (nothing buffered client-side).
func (f *file) Close() error { return nil }

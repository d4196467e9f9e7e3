// Package nfs3 is the NFS-v3-like comparator of Figure 3: a single server
// through which ALL data and metadata flow. Clients keep no cache and issue
// one RPC per operation; WRITEs are unstable (buffered in server memory and
// acknowledged immediately — NFSv3 server-side write-back) and a COMMIT on
// close or fsync flushes them to the server's local disk.
//
// The model preserves the two properties the paper observes: with no
// distributed updates there is no ordering RPC on the client, so scattered
// small-file writes are fast (xcdn-32K, where NFS3 beats original Redbud);
// but every byte crosses the single server's NIC and disk, so large files
// and many clients bottleneck (where Redbud's direct FC data path wins).
package nfs3

import (
	"errors"
	"fmt"
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

// Operation codes (NFSv3 procedure equivalents).
const (
	opLookup uint16 = iota + 1
	opCreate
	opMkdir
	opRemove
	opGetAttr
	opReadDir
	opWrite // unstable write: server buffers and acks
	opRead
	opCommit // flush buffered writes to stable storage
	opRename
)

// Server errors.
var errStale = errors.New("nfs3: stale file handle")

// sfile is a server-side file: buffered pages plus flushed extents.
type sfile struct {
	id    uint64
	dir   bool
	size  int64
	mtime time.Time
	// data is the server's buffer cache for this file (page-indexed).
	data map[int64][]byte
	// dirty tracks pages not yet on the server disk.
	dirty map[int64]bool
	// disk placement: one span per flush batch.
	spans []alloc.Span
}

const pageSize = 4096

// Server is the NFS server: namespace, buffer cache, local disk.
type Server struct {
	clk  clock.Clock
	disk *blockdev.Device
	ag   *alloc.Group
	rpc  *rpc.Server

	mu      sync.Mutex
	files   map[uint64]*sfile
	dirents map[uint64]map[string]uint64
	nextID  uint64
}

// ServerConfig configures the NFS server.
type ServerConfig struct {
	Disk    *blockdev.Device
	Clock   clock.Clock
	Daemons int
	// OpCost is the per-RPC server CPU cost.
	OpCost time.Duration
}

// NewServer builds the server.
func NewServer(cfg ServerConfig) *Server {
	if cfg.Disk == nil {
		panic("nfs3: nil disk")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real(1)
	}
	if cfg.Daemons <= 0 {
		cfg.Daemons = 8
	}
	s := &Server{
		clk:     cfg.Clock,
		disk:    cfg.Disk,
		ag:      alloc.NewGroup(cfg.Disk.ID(), 0, cfg.Disk.Size()),
		files:   map[uint64]*sfile{1: {id: 1, dir: true, mtime: cfg.Clock.Now()}},
		dirents: map[uint64]map[string]uint64{1: {}},
		nextID:  2,
	}
	s.rpc = rpc.NewServer(rpc.ServerConfig{Handler: rpc.Sync(s.handle), Daemons: cfg.Daemons, OpCost: cfg.OpCost, Clock: cfg.Clock})
	return s
}

// Serve accepts connections until the listener closes.
func (s *Server) Serve(l *netsim.Listener) { s.rpc.Serve(l) }

// Close stops the RPC pool.
func (s *Server) Close() { s.rpc.Close() }

type handleReq struct{ ID uint64 }

func (m *handleReq) MarshalWire(b *wire.Buffer)         { b.PutU64(m.ID) }
func (m *handleReq) UnmarshalWire(r *wire.Reader) error { m.ID = r.U64(); return r.Err() }

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

type writeReq struct {
	ID   uint64
	Off  int64
	Data []byte
}

func (m *writeReq) MarshalWire(b *wire.Buffer) {
	b.PutU64(m.ID)
	b.PutI64(m.Off)
	b.PutBytes(m.Data)
}

func (m *writeReq) UnmarshalWire(r *wire.Reader) error {
	m.ID = r.U64()
	m.Off = r.I64()
	// Zero-copy: decoded server-side only; writePages copies Data into the
	// file's page cache before the handler returns the pooled frame.
	m.Data = r.BytesRef() //lint:allow wirealias — writePages copies before the handler returns
	return r.Err()
}

type readReq struct {
	ID  uint64
	Off int64
	N   int64
}

func (m *readReq) MarshalWire(b *wire.Buffer) {
	b.PutU64(m.ID)
	b.PutI64(m.Off)
	b.PutI64(m.N)
}

func (m *readReq) UnmarshalWire(r *wire.Reader) error {
	m.ID = r.U64()
	m.Off = r.I64()
	m.N = r.I64()
	return r.Err()
}

type dataResp struct{ Data []byte }

func (m *dataResp) MarshalWire(b *wire.Buffer) { b.PutBytes(m.Data) }

// UnmarshalWire must copy: decoded client-side, Data escapes to the reader
// while rpc.Client recycles the response frame right after wire.Decode.
func (m *dataResp) UnmarshalWire(r *wire.Reader) error { m.Data = r.Bytes(); return r.Err() }

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

// handle dispatches one RPC.
func (s *Server) handle(op uint16, body []byte) ([]byte, error) {
	switch op {
	case opLookup:
		var req nameReq
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		id, ok := s.dirents[req.Parent][req.Name]
		if !ok {
			return nil, fmt.Errorf("nfs3: %q not found", req.Name)
		}
		f := s.files[id]
		return wire.Encode(&attrResp{ID: id, Dir: f.dir, Size: f.size, MT: f.mtime}), nil

	case opCreate, opMkdir:
		var req nameReq
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		dir, ok := s.dirents[req.Parent]
		if !ok {
			return nil, errStale
		}
		if _, dup := dir[req.Name]; dup {
			return nil, fmt.Errorf("nfs3: %q already exists", req.Name)
		}
		id := s.nextID
		s.nextID++
		f := &sfile{id: id, dir: op == opMkdir, mtime: s.clk.Now(), data: map[int64][]byte{}, dirty: map[int64]bool{}}
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
		s.mu.Lock()
		defer s.mu.Unlock()
		dir, ok := s.dirents[req.Parent]
		if !ok {
			return nil, errStale
		}
		id, ok := dir[req.Name]
		if !ok {
			return nil, fmt.Errorf("nfs3: %q not found", req.Name)
		}
		f := s.files[id]
		if f.dir && len(s.dirents[id]) > 0 {
			return nil, fmt.Errorf("nfs3: %q not empty", req.Name)
		}
		delete(dir, req.Name)
		for _, sp := range f.spans {
			_ = s.ag.FreeSpan(sp.Off, sp.Len)
		}
		delete(s.files, id)
		delete(s.dirents, id)
		return nil, nil

	case opGetAttr:
		var req handleReq
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		f, ok := s.files[req.ID]
		if !ok {
			return nil, errStale
		}
		return wire.Encode(&attrResp{ID: f.id, Dir: f.dir, Size: f.size, MT: f.mtime}), nil

	case opReadDir:
		var req handleReq
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		dir, ok := s.dirents[req.ID]
		if !ok {
			return nil, errStale
		}
		var resp readDirResp
		for name, id := range dir {
			resp.Names = append(resp.Names, name)
			resp.Dirs = append(resp.Dirs, s.files[id].dir)
		}
		return wire.Encode(&resp), nil

	case opWrite:
		var req writeReq
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		f, ok := s.files[req.ID]
		if !ok || f.dir {
			return nil, errStale
		}
		// Unstable write: buffer in server memory, ack immediately.
		writePages(f, req.Data, req.Off)
		if end := req.Off + int64(len(req.Data)); end > f.size {
			f.size = end
		}
		f.mtime = s.clk.Now()
		return nil, nil

	case opRead:
		var req readReq
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		s.mu.Lock()
		f, ok := s.files[req.ID]
		if !ok || f.dir {
			s.mu.Unlock()
			return nil, errStale
		}
		if req.Off >= f.size {
			s.mu.Unlock()
			return wire.Encode(&dataResp{}), nil
		}
		n := req.N
		if req.Off+n > f.size {
			n = f.size - req.Off
		}
		out := make([]byte, n)
		readPages(f, out, req.Off)
		s.mu.Unlock()
		return wire.Encode(&dataResp{Data: out}), nil

	case opCommit:
		var req handleReq
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		return nil, s.commit(req.ID)

	case opRename:
		var req renameReq
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		src, ok := s.dirents[req.SrcParent]
		if !ok {
			return nil, errStale
		}
		id, ok := src[req.SrcName]
		if !ok {
			return nil, fmt.Errorf("nfs3: %q not found", req.SrcName)
		}
		dst, ok := s.dirents[req.DstParent]
		if !ok {
			return nil, errStale
		}
		if _, dup := dst[req.DstName]; dup {
			return nil, fmt.Errorf("nfs3: %q already exists", req.DstName)
		}
		delete(src, req.SrcName)
		dst[req.DstName] = id
		return nil, nil
	}
	return nil, fmt.Errorf("nfs3: unknown op %d", op)
}

// commit flushes a file's dirty pages to the server disk as one contiguous
// span per batch.
func (s *Server) commit(id uint64) error {
	s.mu.Lock()
	f, ok := s.files[id]
	if !ok {
		s.mu.Unlock()
		return errStale
	}
	var pages []int64
	for pg := range f.dirty {
		pages = append(pages, pg)
	}
	if len(pages) == 0 {
		s.mu.Unlock()
		return nil
	}
	buf := make([]byte, 0, len(pages)*pageSize)
	for _, pg := range pages {
		buf = append(buf, f.data[pg]...)
		delete(f.dirty, pg)
	}
	sp, err := s.ag.Alloc(int64(len(buf)), -1)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	f.spans = append(f.spans, alloc.Span{Dev: s.disk.ID(), Off: sp.Off, Len: sp.Len})
	s.mu.Unlock()
	return s.disk.Write(sp.Off, buf)
}

func writePages(f *sfile, p []byte, off int64) {
	for len(p) > 0 {
		pg := off / pageSize
		in := off - pg*pageSize
		n := pageSize - in
		if int64(len(p)) < n {
			n = int64(len(p))
		}
		page := f.data[pg]
		if page == nil {
			page = make([]byte, pageSize)
			f.data[pg] = page
		}
		copy(page[in:in+n], p[:n])
		f.dirty[pg] = true
		p = p[n:]
		off += n
	}
}

func readPages(f *sfile, p []byte, off int64) {
	for len(p) > 0 {
		pg := off / pageSize
		in := off - pg*pageSize
		n := pageSize - in
		if int64(len(p)) < n {
			n = int64(len(p))
		}
		if page := f.data[pg]; page != nil {
			copy(p[:n], page[in:in+n])
		} else {
			for i := int64(0); i < n; i++ {
				p[i] = 0
			}
		}
		p = p[n:]
		off += n
	}
}

// ---------------------------------------------------------------------------
// Client

// Client is an NFS3 mount implementing fsapi.FileSystem.
type Client struct {
	rpcc *rpc.Client
	clk  clock.Clock

	mu     sync.Mutex
	closed bool
}

var _ fsapi.FileSystem = (*Client)(nil)

// NewClient mounts via an established connection. The client owns the RPC
// connection.
func NewClient(conn netsim.Conn, clk clock.Clock) *Client {
	if clk == nil {
		clk = clock.Real(1)
	}
	return &Client{rpcc: rpc.NewClient(conn, clk), clk: clk}
}

// resolve walks a path server-side component by component (NFS has no
// server-side path walk; each component is a LOOKUP).
func (c *Client) resolve(path string) (attrResp, error) {
	cur := attrResp{ID: 1, Dir: true}
	for _, name := range fsapi.SplitPath(path) {
		var next attrResp
		if err := c.rpcc.Call(opLookup, &nameReq{Parent: cur.ID, Name: name}, &next); err != nil {
			return attrResp{}, mapErr(err)
		}
		cur = next
	}
	return cur, nil
}

func (c *Client) resolveParent(path string) (uint64, string, error) {
	parts := fsapi.SplitPath(path)
	if len(parts) == 0 {
		return 0, "", fmt.Errorf("nfs3: invalid path %q", path)
	}
	parent := uint64(1)
	if len(parts) > 1 {
		dirPath := "/"
		for _, p := range parts[:len(parts)-1] {
			dirPath += p + "/"
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
	if err := c.rpcc.Call(opCreate, &nameReq{Parent: parent, Name: leaf}, &a); err != nil {
		return nil, mapErr(err)
	}
	return &file{c: c, id: a.ID, size: 0}, nil
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
	return mapErr(c.rpcc.Call(opMkdir, &nameReq{Parent: parent, Name: leaf}, &a))
}

// Remove unlinks a path.
func (c *Client) Remove(path string) error {
	parent, leaf, err := c.resolveParent(path)
	if err != nil {
		return err
	}
	return mapErr(c.rpcc.Call(opRemove, &nameReq{Parent: parent, Name: leaf}, nil))
}

// Rename moves a directory entry.
func (c *Client) Rename(oldPath, newPath string) error {
	srcParent, srcLeaf, err := c.resolveParent(oldPath)
	if err != nil {
		return err
	}
	dstParent, dstLeaf, err := c.resolveParent(newPath)
	if err != nil {
		return err
	}
	return mapErr(c.rpcc.Call(opRename, &renameReq{
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
	if err := c.rpcc.Call(opReadDir, &handleReq{ID: a.ID}, &resp); err != nil {
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
	return c.rpcc.Close()
}

// RPCs returns the number of RPCs issued (harness metric).
func (c *Client) RPCs() int64 { return c.rpcc.Calls() }

// file is an open NFS file.
type file struct {
	c    *Client
	id   uint64
	mu   sync.Mutex
	size int64
}

func (f *file) WriteAt(p []byte, off int64) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if err := f.c.rpcc.Call(opWrite, &writeReq{ID: f.id, Off: off, Data: p}, nil); err != nil {
		return 0, mapErr(err)
	}
	f.mu.Lock()
	if end := off + int64(len(p)); end > f.size {
		f.size = end
	}
	f.mu.Unlock()
	return len(p), nil
}

func (f *file) ReadAt(p []byte, off int64) (int, error) {
	var resp dataResp
	if err := f.c.rpcc.Call(opRead, &readReq{ID: f.id, Off: off, N: int64(len(p))}, &resp); err != nil {
		return 0, mapErr(err)
	}
	copy(p, resp.Data)
	return len(resp.Data), nil
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

func (f *file) Sync() error {
	return mapErr(f.c.rpcc.Call(opCommit, &handleReq{ID: f.id}, nil))
}

// Close sends COMMIT: NFSv3 close-to-open consistency flushes on close.
func (f *file) Close() error { return f.Sync() }

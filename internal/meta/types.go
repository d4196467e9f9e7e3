// Package meta implements the Redbud MDS metadata: the namespace tree,
// inodes with extent lists, layouts, and a write-ahead journal persisted on
// the metadata disk. It enforces the paper's ordered-write contract — an
// extent only ever reaches the Committed state through an explicit commit,
// and crash recovery replays the journal and garbage-collects "orphan"
// space: allocations and delegations whose commits never arrived (§I, §III).
package meta

import (
	"time"

	"redbud/internal/wire"
)

// FileID identifies an inode. The root directory is always RootID.
type FileID uint64

// RootID is the inode number of the root directory.
const RootID FileID = 1

// FileType distinguishes regular files from directories.
type FileType uint8

// File types.
const (
	TypeFile FileType = iota
	TypeDir
)

// ExtentState tracks the commit status of an extent.
type ExtentState uint8

// Extent states. Space in StateUncommitted was allocated (by the MDS at
// layout-get time, or carved by a client from a delegation) but its commit
// has not arrived; after a crash it is orphan space and is recycled.
const (
	StateUncommitted ExtentState = iota
	StateCommitted
)

// Extent is the paper's mapping unit: <file offset, length, device id,
// volume offset, state> (§V-A).
type Extent struct {
	FileOff int64
	Len     int64
	Dev     uint32
	VolOff  int64
	State   ExtentState
}

// End returns the first file offset past the extent.
func (e Extent) End() int64 { return e.FileOff + e.Len }

func (e Extent) bounds() (int64, int64) { return e.FileOff, e.End() }

// MarshalWire encodes the extent.
func (e Extent) MarshalWire(b *wire.Buffer) {
	b.PutI64(e.FileOff)
	b.PutI64(e.Len)
	b.PutU32(e.Dev)
	b.PutI64(e.VolOff)
	b.PutU8(uint8(e.State))
}

// UnmarshalWire decodes the extent.
func (e *Extent) UnmarshalWire(r *wire.Reader) error {
	e.FileOff = r.I64()
	e.Len = r.I64()
	e.Dev = r.U32()
	e.VolOff = r.I64()
	e.State = ExtentState(r.U8())
	return r.Err()
}

// PutExtents encodes a length-prefixed extent list.
func PutExtents(b *wire.Buffer, exts []Extent) {
	b.PutU32(uint32(len(exts)))
	for _, e := range exts {
		e.MarshalWire(b)
	}
}

// GetExtents decodes a length-prefixed extent list.
func GetExtents(r *wire.Reader) []Extent {
	n := int(r.U32())
	if r.Err() != nil || n > 1<<20 {
		return nil
	}
	out := make([]Extent, 0, n)
	for i := 0; i < n; i++ {
		var e Extent
		if e.UnmarshalWire(r) != nil {
			return nil
		}
		out = append(out, e)
	}
	return out
}

// Layout is the collection of extents covering a range of a file (§V-A).
type Layout struct {
	File    FileID
	Extents []Extent
	// VisibleEnd is the highest file offset any published write intent of
	// the file reaches, filled in only for lookups that asked for
	// uncommitted extents (LayoutWantUncommitted). Readers that opted in
	// to early visibility use max(committed size, VisibleEnd) as the
	// file's visible size; committed-only lookups leave it 0.
	VisibleEnd int64
}

// Attr is the caller-visible attribute set of an inode.
type Attr struct {
	ID    FileID
	Type  FileType
	Size  int64
	MTime time.Time
}

// DirEnt is one directory entry.
type DirEnt struct {
	Name string
	ID   FileID
	Type FileType
	Size int64
}

// inode is the MDS-internal per-file record. Ownership of uncommitted
// extents lives in the store's intent table, not here.
type inode struct {
	id    FileID
	typ   FileType
	size  int64
	mtime time.Time
	// extents are sorted by FileOff and non-overlapping.
	extents []Extent
	nlink   int // directory entries referencing this inode
}

func (ino *inode) attr() Attr {
	return Attr{ID: ino.id, Type: ino.typ, Size: ino.size, MTime: ino.mtime}
}

// extentsIn returns the extents overlapping [off, off+n), optionally only
// committed ones.
func (ino *inode) extentsIn(off, n int64, committedOnly bool) []Extent {
	var out []Extent
	end := off + n
	for _, e := range ino.extents {
		if e.FileOff < end && off < e.End() {
			if committedOnly && e.State != StateCommitted {
				continue
			}
			out = append(out, e)
		}
	}
	return out
}

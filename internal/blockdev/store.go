package blockdev

import (
	"slices"
	"sort"
	"sync"
)

// pageSize is the granularity of the in-memory backing store. It is an
// implementation detail of the simulator, unrelated to the file-system page
// size.
const pageSize = 4096

// pageStore is the byte-addressable backing store of a simulated device.
// Unwritten bytes read as zero.
type pageStore struct {
	mu    sync.RWMutex
	pages map[int64][]byte // page index -> pageSize bytes
}

func newPageStore() *pageStore { return &pageStore{pages: make(map[int64][]byte)} }

func (s *pageStore) writeAt(p []byte, off int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writeLocked(p, off)
}

// adopt stores p at a page-aligned off like writeAt, but takes ownership of
// p: every fully covered page whose slot is still empty becomes a
// capacity-capped sub-slice of p instead of a fresh copy. Slots that already
// exist are overwritten in place, and a partial last page is copied. The
// caller must never touch p again.
func (s *pageStore) adopt(p []byte, off int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for ; len(p) >= pageSize; p, off = p[pageSize:], off+pageSize {
		idx := off / pageSize
		if pg := s.pages[idx]; pg != nil {
			copy(pg, p[:pageSize])
		} else {
			s.pages[idx] = p[:pageSize:pageSize]
		}
	}
	s.writeLocked(p, off)
}

// writeLocked copies p into the pages covering [off, off+len(p)), creating
// missing ones. Caller holds s.mu.
func (s *pageStore) writeLocked(p []byte, off int64) {
	for len(p) > 0 {
		idx := off / pageSize
		in := off - idx*pageSize
		n := pageSize - in
		if int64(len(p)) < n {
			n = int64(len(p))
		}
		pg := s.pages[idx]
		if pg == nil {
			pg = make([]byte, pageSize)
			s.pages[idx] = pg
		}
		copy(pg[in:in+n], p[:n])
		p = p[n:]
		off += n
	}
}

func (s *pageStore) readAt(p []byte, off int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for len(p) > 0 {
		idx := off / pageSize
		in := off - idx*pageSize
		n := pageSize - in
		if int64(len(p)) < n {
			n = int64(len(p))
		}
		if pg := s.pages[idx]; pg != nil {
			copy(p[:n], pg[in:in+n])
		} else {
			for i := int64(0); i < n; i++ {
				p[i] = 0
			}
		}
		p = p[n:]
		off += n
	}
}

// interval is a half-open byte range [start, end).
type interval struct{ start, end int64 }

// intervalSet is a sorted, coalesced set of non-overlapping intervals. It
// tracks which byte ranges of a device are durable, so tests and the MDS can
// assert the ordered-write invariant ("no committed extent without durable
// data").
type intervalSet struct {
	mu sync.RWMutex
	iv []interval // sorted by start, non-overlapping, non-adjacent
}

// add inserts [start, end) into the set, coalescing neighbours.
func (s *intervalSet) add(start, end int64) {
	if end <= start {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Find the first interval whose end >= start (candidate for merge).
	i := sort.Search(len(s.iv), func(i int) bool { return s.iv[i].end >= start })
	j := i
	for j < len(s.iv) && s.iv[j].start <= end {
		if s.iv[j].start < start {
			start = s.iv[j].start
		}
		if s.iv[j].end > end {
			end = s.iv[j].end
		}
		j++
	}
	// Splice in place; the backing array grows only when the set does.
	s.iv = slices.Replace(s.iv, i, j, interval{start, end})
}

// contains reports whether [start, end) is fully covered.
func (s *intervalSet) contains(start, end int64) bool {
	if end <= start {
		return true
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	i := sort.Search(len(s.iv), func(i int) bool { return s.iv[i].end > start })
	return i < len(s.iv) && s.iv[i].start <= start && s.iv[i].end >= end
}

// count returns the number of disjoint intervals (for tests).
func (s *intervalSet) count() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.iv)
}

// clear drops all intervals.
func (s *intervalSet) clear() {
	s.mu.Lock()
	s.iv = nil
	s.mu.Unlock()
}

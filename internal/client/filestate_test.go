package client

import (
	"bytes"
	"math/rand"
	"testing"
	"unsafe"

	"redbud/internal/meta"
	"redbud/internal/proto"
)

// TestGapsLockedVsBitmap property-checks the extent-coverage gap computation
// against a bitmap reference.
func TestGapsLockedVsBitmap(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const space = 1 << 16
	for trial := 0; trial < 200; trial++ {
		fs := newFileState(1, 0)
		covered := make([]bool, space)
		// Insert random non-overlapping extents via the real path.
		for i := 0; i < 20; i++ {
			off := int64(rng.Intn(space - 256))
			ln := int64(rng.Intn(256) + 1)
			fs.insertExtentLocked(meta.Extent{FileOff: off, Len: ln, VolOff: off})
		}
		// Rebuild the bitmap from what actually landed.
		for _, e := range fs.extents {
			for j := e.FileOff; j < e.End(); j++ {
				covered[j] = true
			}
		}
		// Probe random ranges.
		for probe := 0; probe < 20; probe++ {
			a := int64(rng.Intn(space - 512))
			b := a + int64(rng.Intn(512)+1)
			gaps := fs.gapsLocked(a, b)
			// Reference: runs of uncovered positions.
			var ref [][2]int64
			run := int64(-1)
			for j := a; j <= b; j++ {
				if j < b && !covered[j] {
					if run < 0 {
						run = j
					}
				} else if run >= 0 {
					ref = append(ref, [2]int64{run, j})
					run = -1
				}
			}
			if len(gaps) != len(ref) {
				t.Fatalf("trial %d probe [%d,%d): gaps %v, want %v", trial, a, b, gaps, ref)
			}
			for i := range ref {
				if gaps[i] != ref[i] {
					t.Fatalf("trial %d probe [%d,%d): gaps %v, want %v", trial, a, b, gaps, ref)
				}
			}
		}
		// Structural invariant: extents sorted and non-overlapping.
		for i := 1; i < len(fs.extents); i++ {
			if fs.extents[i-1].End() > fs.extents[i].FileOff {
				t.Fatalf("trial %d: extents overlap: %+v", trial, fs.extents)
			}
		}
	}
}

// TestUncachedRangesVsBitmap property-checks the page-cache hole scan.
func TestUncachedRangesVsBitmap(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		fs := newFileState(1, 0)
		const pages = 32
		present := make([]bool, pages)
		for i := 0; i < pages; i++ {
			if rng.Intn(2) == 0 {
				fs.pages[int64(i)] = make([]byte, PageSize)
				present[i] = true
			}
		}
		a := int64(rng.Intn(pages*PageSize - 1))
		b := a + int64(rng.Intn(pages*PageSize-int(a))+1)
		got := fs.uncachedRanges(a, b)
		// Compare coverage: every uncached byte must be inside some
		// reported range, and no cached byte may be.
		inGot := func(j int64) bool {
			for _, g := range got {
				if j >= g[0] && j < g[1] {
					return true
				}
			}
			return false
		}
		for j := a; j < b; j++ {
			cached := present[j/PageSize]
			if !cached && !inGot(j) {
				t.Fatalf("trial %d: uncached byte %d not reported (a=%d b=%d got=%v)", trial, j, a, b, got)
			}
			if cached && inGot(j) {
				t.Fatalf("trial %d: cached byte %d reported as missing (got=%v)", trial, j, got)
			}
		}
	}
}

// TestFinishCommitMatchesFullExtentIdentity regresses the phantom-commit
// bug: volume offsets repeat across devices (every device lays its AGs out
// from the same bases), so finishCommit must match the acked extents by
// (FileOff, Dev, VolOff), not VolOff alone. With the old VolOff-only match,
// an extent written concurrently with an in-flight commit — same VolOff on
// a different device — was marked committed without ever being sent, the
// MDS never learned about it, and cross-client reads saw a hole (the flaky
// NPB BT conflict-read failure).
func TestFinishCommitMatchesFullExtentIdentity(t *testing.T) {
	c := &Client{}
	fs := newFileState(1, 0)
	sent := meta.Extent{FileOff: 0, Len: 4096, Dev: 0, VolOff: 8192, State: meta.StateUncommitted}
	fs.insertExtentLocked(sent)
	req := &proto.CommitReq{File: fs.id, Size: 4096, Extents: []meta.Extent{sent}}

	// While the commit RPC is "in flight", a new write lands on another
	// device at the same volume offset.
	racer := meta.Extent{FileOff: 8192, Len: 4096, Dev: 1, VolOff: 8192, State: meta.StateUncommitted}
	fs.insertExtentLocked(racer)
	fs.dirtyMeta = true

	c.finishCommit(fs, req, nil)

	var gotSent, gotRacer meta.Extent
	for _, e := range fs.extents {
		switch e.FileOff {
		case sent.FileOff:
			gotSent = e
		case racer.FileOff:
			gotRacer = e
		}
	}
	if gotSent.State != meta.StateCommitted {
		t.Errorf("sent extent not marked committed: %+v", gotSent)
	}
	if gotRacer.State != meta.StateUncommitted {
		t.Errorf("unsent extent spuriously marked committed: %+v", gotRacer)
	}
	if !fs.dirtyMeta {
		t.Error("dirtyMeta cleared while an unsent extent is outstanding")
	}
}

// pagePattern returns n bytes that differ from page to page, so a byte
// landing on the wrong page shows.
func pagePattern(n int, seed byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = seed + byte(i/PageSize)*31 + byte(i%251)
	}
	return p
}

func TestCachePagesShareOneSlab(t *testing.T) {
	fs := newFileState(1, 0)
	want := pagePattern(3*PageSize+100, 1) // the tail page lies past EOF
	fs.cachePagesLocked(want, 0)
	fs.size = int64(len(want))
	base := unsafe.SliceData(fs.pages[0])
	for pg := int64(0); pg < 4; pg++ {
		page := fs.pages[pg]
		if len(page) != PageSize || cap(page) != PageSize {
			t.Fatalf("page %d: len %d cap %d, want %d", pg, len(page), cap(page), PageSize)
		}
		if unsafe.SliceData(page) != (*byte)(unsafe.Add(unsafe.Pointer(base), pg*PageSize)) {
			t.Fatalf("page %d is not carved from the write's slab", pg)
		}
	}
	// Overwrite page 1 whole and page 2 in part: the slab neighbours keep
	// their bytes.
	one := pagePattern(PageSize, 9)
	fs.cachePagesLocked(one, PageSize)
	copy(want[PageSize:], one)
	fs.cachePagesLocked([]byte{0xEE, 0xEE}, 2*PageSize+5)
	copy(want[2*PageSize+5:], []byte{0xEE, 0xEE})
	for pg := int64(0); pg < 4; pg++ {
		lo, hi := pg*PageSize, min64((pg+1)*PageSize, int64(len(want)))
		if !bytes.Equal(fs.pages[pg][:hi-lo], want[lo:hi]) {
			t.Fatalf("page %d corrupted by an overwrite of its slab neighbour", pg)
		}
	}
	if !bytes.Equal(fs.pages[3][100:], make([]byte, PageSize-100)) {
		t.Fatal("tail page past EOF is not zero")
	}
}

// TestCachePagesVsByteMap runs random writes through the page cache and
// checks every cached page against a flat byte-map oracle.
func TestCachePagesVsByteMap(t *testing.T) {
	const space = 32 * PageSize
	rng := rand.New(rand.NewSource(5))
	fs := newFileState(1, 0)
	ref := make([]byte, space)
	for i := 0; i < 2000; i++ {
		n := 1 + rng.Intn(5*PageSize)
		off := int64(rng.Intn(space - n))
		p := pagePattern(n, byte(i))
		fs.cachePagesLocked(p, off)
		copy(ref[off:], p)
		for j := range p {
			p[j] ^= 0xFF // the cache must hold its own copy
		}
		if end := off + int64(n); end > fs.size {
			fs.size = end
		}
		for pg, page := range fs.pages {
			lo := pg * PageSize
			if !bytes.Equal(page, ref[lo:lo+PageSize]) {
				t.Fatalf("write %d: cached page %d diverges from the byte map", i, pg)
			}
		}
	}
}

// BenchmarkCachePages1M measures filling the page cache from one 1 MiB
// write into an empty cache. Its allocs/op is gated in CI: one slab per
// write, however many pages it covers.
func BenchmarkCachePages1M(b *testing.B) {
	const size = 1 << 20
	fs := newFileState(1, 0)
	buf := make([]byte, size)
	fs.cachePagesLocked(buf, 0) // size the map once
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(fs.pages) // drop-behind, keeping the map's buckets
		fs.cachePagesLocked(buf, 0)
	}
}

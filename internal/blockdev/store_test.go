package blockdev

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPageStoreReadUnwrittenIsZero(t *testing.T) {
	s := newPageStore()
	buf := make([]byte, 100)
	for i := range buf {
		buf[i] = 0xff
	}
	s.readAt(buf, 12345)
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, b)
		}
	}
}

func TestPageStoreRoundTrip(t *testing.T) {
	s := newPageStore()
	data := []byte("hello block world")
	s.writeAt(data, 4090) // crosses a page boundary
	got := make([]byte, len(data))
	s.readAt(got, 4090)
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q, want %q", got, data)
	}
}

func TestPageStoreOverwrite(t *testing.T) {
	s := newPageStore()
	s.writeAt(bytes.Repeat([]byte{1}, 8192), 0)
	s.writeAt(bytes.Repeat([]byte{2}, 100), 4000)
	got := make([]byte, 8192)
	s.readAt(got, 0)
	if got[3999] != 1 || got[4000] != 2 || got[4099] != 2 || got[4100] != 1 {
		t.Fatalf("overwrite boundary wrong: %v %v %v %v", got[3999], got[4000], got[4099], got[4100])
	}
}

func TestPageStoreQuickRoundTrip(t *testing.T) {
	s := newPageStore()
	// Reference model: one flat slice.
	const size = 1 << 16
	ref := make([]byte, size)
	f := func(off uint16, raw []byte, pages uint8, adopt bool) bool {
		// Whole pages ahead of raw give the store payloads it can adopt.
		p := append(pattern(pages, int(pages%4)*pageSize), raw...)
		if len(p) == 0 {
			return true
		}
		o := int64(off) % (size / 2)
		if adopt {
			o -= o % pageSize
		}
		n := len(p)
		if int(o)+n > size {
			n = size - int(o)
		}
		if adopt {
			s.adopt(p[:n], o)
		} else {
			s.writeAt(p[:n], o)
		}
		copy(ref[o:], p[:n])
		got := make([]byte, size)
		s.readAt(got, 0)
		return bytes.Equal(got, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestIntervalSetBasics(t *testing.T) {
	var s intervalSet
	if !s.contains(5, 5) {
		t.Fatal("empty range must be contained")
	}
	s.add(10, 20)
	if !s.contains(10, 20) || !s.contains(12, 18) {
		t.Fatal("added range not contained")
	}
	if s.contains(9, 11) || s.contains(19, 21) || s.contains(0, 5) {
		t.Fatal("uncovered range reported contained")
	}
}

func TestIntervalSetCoalesce(t *testing.T) {
	var s intervalSet
	s.add(0, 10)
	s.add(10, 20) // adjacent: coalesce
	if s.count() != 1 {
		t.Fatalf("adjacent add left %d intervals, want 1", s.count())
	}
	if !s.contains(0, 20) {
		t.Fatal("coalesced range not contained")
	}
	s.add(30, 40)
	s.add(15, 35) // bridges the two
	if s.count() != 1 || !s.contains(0, 40) {
		t.Fatalf("bridging add: count=%d contains=%v", s.count(), s.contains(0, 40))
	}
}

func TestIntervalSetSubsumed(t *testing.T) {
	var s intervalSet
	s.add(0, 100)
	s.add(10, 20)
	if s.count() != 1 {
		t.Fatalf("subsumed add split interval: count=%d", s.count())
	}
}

func TestIntervalSetEmptyAdd(t *testing.T) {
	var s intervalSet
	s.add(10, 10)
	s.add(10, 5)
	if s.count() != 0 {
		t.Fatal("empty/inverted add created intervals")
	}
}

func TestIntervalSetClear(t *testing.T) {
	var s intervalSet
	s.add(0, 10)
	s.clear()
	if s.contains(0, 1) || s.count() != 0 {
		t.Fatal("clear did not empty the set")
	}
}

// TestIntervalSetQuickVsBitmap checks the interval set against a bitmap
// reference model under random insertions.
func TestIntervalSetQuickVsBitmap(t *testing.T) {
	const size = 4096
	var s intervalSet
	ref := make([]bool, size)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		a := int64(rng.Intn(size))
		b := a + int64(rng.Intn(64))
		if b > size {
			b = size
		}
		s.add(a, b)
		for j := a; j < b; j++ {
			ref[j] = true
		}
		// Probe random ranges.
		for k := 0; k < 10; k++ {
			x := int64(rng.Intn(size))
			y := x + int64(rng.Intn(64))
			if y > size {
				y = size
			}
			want := true
			for j := x; j < y; j++ {
				if !ref[j] {
					want = false
					break
				}
			}
			if got := s.contains(x, y); got != want {
				t.Fatalf("iteration %d: contains(%d,%d) = %v, want %v", i, x, y, got, want)
			}
		}
	}
}

// pattern returns n bytes that differ from page to page and from seed to
// seed, so a byte landing in the wrong place shows.
func pattern(seed byte, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = seed + byte(i/pageSize)*31 + byte(i%251)
	}
	return p
}

func TestPageStoreAdoptCapsPages(t *testing.T) {
	s := newPageStore()
	p := pattern(1, 3*pageSize)
	s.adopt(p, 0)
	for idx := int64(0); idx < 3; idx++ {
		pg := s.pages[idx]
		if len(pg) != pageSize || cap(pg) != pageSize {
			t.Fatalf("page %d: len %d cap %d, want %d", idx, len(pg), cap(pg), pageSize)
		}
		if &pg[0] != &p[idx*pageSize] {
			t.Fatalf("page %d is a copy, want the adopted payload", idx)
		}
	}
}

func TestPageStoreAdoptedPagePartialOverwrite(t *testing.T) {
	s := newPageStore()
	want := pattern(1, 4*pageSize)
	s.adopt(append([]byte(nil), want...), 0)
	// A short write into page 1 and a full adopted write over page 2 must
	// change only those bytes, not the pages that share their payload.
	patch := bytes.Repeat([]byte{0xEE}, 100)
	s.writeAt(patch, pageSize+10)
	copy(want[pageSize+10:], patch)
	page2 := pattern(9, pageSize)
	s.adopt(append([]byte(nil), page2...), 2*pageSize)
	copy(want[2*pageSize:], page2)
	got := make([]byte, len(want))
	s.readAt(got, 0)
	if !bytes.Equal(got, want) {
		t.Fatal("overwriting one adopted page disturbed its neighbours")
	}
}

func TestWriteAsyncCallerMayReuseBuffer(t *testing.T) {
	d := newTestDev(t, Config{Size: 1 << 20})
	for _, off := range []int64{0, 8*pageSize + 100} { // adopted, copied
		p := pattern(5, 4*pageSize)
		want := append([]byte(nil), p...)
		done := d.WriteAsync(off, p)
		for i := range p {
			p[i] = 0xFF // scribble before the write completes...
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		for i := range p {
			p[i] = 0x11 // ...and after
		}
		got, err := d.Read(off, int64(len(want)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("off %d: stored bytes follow the caller's buffer", off)
		}
	}
}

func TestTornAdoptedWriteKeepsOnlyPrefix(t *testing.T) {
	const keep = pageSize + 100
	d := newTestDev(t, Config{Size: 1 << 20, WriteFault: func(off, n int64) (WriteFault, int64) { return WriteTorn, keep }})
	p := pattern(7, 4*pageSize)
	if err := d.Write(0, p); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if !d.IsDurable(0, keep) || d.IsDurable(0, keep+1) {
		t.Fatalf("durable prefix wrong: [0,%d) %v, [0,%d) %v", keep, d.IsDurable(0, keep), keep+1, d.IsDurable(0, keep+1))
	}
	got, err := d.Read(0, int64(len(p)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:keep], p[:keep]) {
		t.Fatal("torn prefix reads back wrong")
	}
	if !bytes.Equal(got[keep:], make([]byte, len(p)-keep)) {
		t.Fatal("bytes beyond the tear are visible")
	}
}

// TestUnalignedWriteTakesCopyPath tells the two store paths apart by their
// allocations: an adopted write allocates no page of its own, a copied one
// allocates every page it creates.
func TestUnalignedWriteTakesCopyPath(t *testing.T) {
	const pages = 16
	d := newTestDev(t, Config{Size: 1 << 34})
	p := make([]byte, pages*pageSize)
	var off int64
	allocs := func(skew int64) float64 {
		return testing.AllocsPerRun(20, func() {
			off += (pages + 2) * pageSize // fresh pages every run
			if err := d.Write(off+skew, p); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a := allocs(0); a >= pages {
		t.Errorf("aligned %d-page write: %.0f allocs, want < %d (payload adopted)", pages, a, pages)
	}
	if a := allocs(100); a < pages {
		t.Errorf("unaligned %d-page write: %.0f allocs, want >= %d (one per copied page)", pages, a, pages)
	}
}

// TestDeviceWritesVsByteMap runs random batches of adopted and copied
// writes through the device, scribbling over each caller buffer as soon as
// WriteAsync returns, against a flat byte-map oracle.
func TestDeviceWritesVsByteMap(t *testing.T) {
	const size = 64 * pageSize
	d := newTestDev(t, Config{Size: size})
	ref := make([]byte, size)
	rng := rand.New(rand.NewSource(11))
	for batch := 0; batch < 200; batch++ {
		// Writes within a batch are disjoint: the elevator may complete
		// them in any order.
		taken := make([]bool, size/pageSize)
		var dones []<-chan error
		for w := 0; w < 8; w++ {
			n := 1 + rng.Intn(4*pageSize)
			off := int64(rng.Intn(size/pageSize-4)) * pageSize
			if rng.Intn(2) == 0 {
				n = (n + pageSize - 1) / pageSize * pageSize // page-aligned: adopted
			} else {
				off += int64(rng.Intn(pageSize))
			}
			first, last := off/pageSize, (off+int64(n)-1)/pageSize
			free := true
			for pg := first; pg <= last; pg++ {
				free = free && !taken[pg]
			}
			if !free {
				continue
			}
			for pg := first; pg <= last; pg++ {
				taken[pg] = true
			}
			p := pattern(byte(batch*8+w), n)
			copy(ref[off:], p)
			dones = append(dones, d.WriteAsync(off, p))
			for i := range p {
				p[i] ^= 0xFF
			}
		}
		for _, done := range dones {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
		got, err := d.Read(0, size)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, ref) {
			t.Fatalf("batch %d: device diverges from the byte map", batch)
		}
	}
}

package blockdev

import (
	"testing"

	"redbud/internal/clock"
)

func BenchmarkSequentialWrite4K(b *testing.B) {
	d := New(Config{Size: 1 << 34, Model: ZeroLatency(), Clock: clock.Real(1)})
	defer d.Close()
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Write(int64(i%(1<<20))*4096, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeviceWrite1M measures one page-aligned 1 MiB write into fresh
// store pages, the bulk write path. Its allocs/op is gated in CI: the store
// adopts the device's payload copy, so the count must not scale with the
// number of pages.
func BenchmarkDeviceWrite1M(b *testing.B) {
	const size, span = 1 << 20, 64 << 20
	d := New(Config{Size: span, Model: ZeroLatency(), Clock: clock.Real(1)})
	defer d.Close()
	buf := make([]byte, size)
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i) * size % span
		if off == 0 && i > 0 {
			b.StopTimer()
			d.store = newPageStore() // keep every write on fresh pages
			b.StartTimer()
		}
		if err := d.Write(off, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRandomRead4K(b *testing.B) {
	d := New(Config{Size: 1 << 30, Model: ZeroLatency(), Clock: clock.Real(1)})
	defer d.Close()
	if err := d.Write(0, make([]byte, 1<<20)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Read(int64(i*2654435761%(1<<20-4096)), 4096); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIntervalSetAdd(b *testing.B) {
	var s intervalSet
	for i := 0; i < b.N; i++ {
		off := int64(i*2654435761) % (1 << 30)
		s.add(off, off+4096)
	}
}

func BenchmarkServiceTimeModel(b *testing.B) {
	m := DefaultHDD()
	for i := 0; i < b.N; i++ {
		_ = m.ServiceTime(int64(i)*4096, int64(i*7)*4096, 4096)
	}
}

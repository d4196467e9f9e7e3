// Package wire is the hand-rolled binary codec used by the RPC layer and the
// MDS journal. It favours predictable, allocation-light encoding over
// generality: fixed-width little-endian integers, length-prefixed byte
// strings, and sticky-error readers so call sites can decode a whole message
// and check the error once.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"time"
)

// ErrTruncated is reported when a reader runs past the end of its buffer.
var ErrTruncated = errors.New("wire: truncated message")

// ErrTooLong is reported when a length prefix exceeds the sanity cap.
var ErrTooLong = errors.New("wire: length prefix too large")

// maxLen caps byte-string lengths to defend against corrupt frames.
const maxLen = 64 << 20

// Marshaler is implemented by every wire message.
type Marshaler interface{ MarshalWire(*Buffer) }

// Unmarshaler is implemented by every wire message.
type Unmarshaler interface{ UnmarshalWire(*Reader) error }

// Buffer is an append-only encoder.
type Buffer struct{ b []byte }

// NewBuffer returns a buffer with the given capacity hint.
func NewBuffer(capacity int) *Buffer { return &Buffer{b: make([]byte, 0, capacity)} }

// Bytes returns the encoded bytes. The slice aliases the buffer.
func (w *Buffer) Bytes() []byte { return w.b }

// Len returns the number of encoded bytes.
func (w *Buffer) Len() int { return len(w.b) }

// Reset truncates the buffer for reuse.
func (w *Buffer) Reset() { w.b = w.b[:0] }

// PutU8 appends one byte.
func (w *Buffer) PutU8(v uint8) { w.b = append(w.b, v) }

// PutBool appends a boolean as one byte.
func (w *Buffer) PutBool(v bool) {
	if v {
		w.PutU8(1)
	} else {
		w.PutU8(0)
	}
}

// PutU16 appends a little-endian uint16.
func (w *Buffer) PutU16(v uint16) { w.b = binary.LittleEndian.AppendUint16(w.b, v) }

// PutU32 appends a little-endian uint32.
func (w *Buffer) PutU32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }

// PutU64 appends a little-endian uint64.
func (w *Buffer) PutU64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }

// PutI64 appends a little-endian int64.
func (w *Buffer) PutI64(v int64) { w.PutU64(uint64(v)) }

// PutF64 appends an IEEE-754 float64.
func (w *Buffer) PutF64(v float64) { w.PutU64(math.Float64bits(v)) }

// PutDuration appends a duration as nanoseconds.
func (w *Buffer) PutDuration(d time.Duration) { w.PutI64(int64(d)) }

// PutTime appends a time as Unix nanoseconds.
func (w *Buffer) PutTime(t time.Time) { w.PutI64(t.UnixNano()) }

// PutBytes appends a u32 length prefix followed by the bytes.
func (w *Buffer) PutBytes(p []byte) {
	w.PutU32(uint32(len(p)))
	w.b = append(w.b, p...)
}

// PutString appends a length-prefixed string.
func (w *Buffer) PutString(s string) {
	w.PutU32(uint32(len(s)))
	w.b = append(w.b, s...)
}

// Reader is a sticky-error decoder over a byte slice.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader wraps p for decoding. The reader does not copy p.
func NewReader(p []byte) *Reader { return &Reader{b: p} }

// Reset rewinds the reader onto p, clearing any sticky error. It lets hot
// paths keep a stack-allocated Reader instead of calling NewReader per frame.
func (r *Reader) Reset(p []byte) { *r = Reader{b: p} }

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// fail records the first error.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.Remaining() < n {
		r.fail(fmt.Errorf("%w: need %d bytes, have %d", ErrTruncated, n, r.Remaining()))
		return nil
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}

// U8 decodes one byte.
func (r *Reader) U8() uint8 {
	p := r.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

// Bool decodes a boolean.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// U16 decodes a little-endian uint16.
func (r *Reader) U16() uint16 {
	p := r.take(2)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(p)
}

// U32 decodes a little-endian uint32.
func (r *Reader) U32() uint32 {
	p := r.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

// U64 decodes a little-endian uint64.
func (r *Reader) U64() uint64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

// I64 decodes a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 decodes an IEEE-754 float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Duration decodes a nanosecond duration.
func (r *Reader) Duration() time.Duration { return time.Duration(r.I64()) }

// Time decodes a Unix-nanosecond time in UTC.
func (r *Reader) Time() time.Time { return time.Unix(0, r.I64()).UTC() }

// Bytes decodes a length-prefixed byte string. The result is a copy.
func (r *Reader) Bytes() []byte {
	n := r.U32()
	if r.err != nil {
		return nil
	}
	if n > maxLen {
		r.fail(fmt.Errorf("%w: %d", ErrTooLong, n))
		return nil
	}
	p := r.take(int(n))
	if p == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, p)
	return out
}

// BytesRef decodes a length-prefixed byte string without copying: the result
// aliases the reader's underlying buffer. Use only when the buffer outlives
// the decoded value and has a single consumer (e.g. RPC frames handed to
// exactly one waiter).
func (r *Reader) BytesRef() []byte {
	n := r.U32()
	if r.err != nil {
		return nil
	}
	if n > maxLen {
		r.fail(fmt.Errorf("%w: %d", ErrTooLong, n))
		return nil
	}
	return r.take(int(n))
}

// String decodes a length-prefixed string.
func (r *Reader) String() string {
	n := r.U32()
	if r.err != nil {
		return ""
	}
	if n > maxLen {
		r.fail(fmt.Errorf("%w: %d", ErrTooLong, n))
		return ""
	}
	p := r.take(int(n))
	return string(p)
}

// bufPool recycles encode buffers across the RPC framing and journal append
// hot paths. Oversized buffers are dropped on Put so one huge message cannot
// pin its allocation forever.
var bufPool = sync.Pool{New: func() any { return new(Buffer) }}

// maxPooledBuf is the largest buffer capacity returned to the pool.
const maxPooledBuf = 64 << 10

// GetBuffer returns an empty encode buffer from the pool. Release it with
// PutBuffer once the encoded bytes have been copied out (device and network
// Send paths copy before returning).
func GetBuffer() *Buffer {
	b := bufPool.Get().(*Buffer)
	b.Reset()
	return b
}

// PutBuffer recycles a buffer obtained from GetBuffer. The caller must not
// touch the buffer (or slices aliasing it) afterwards.
func PutBuffer(b *Buffer) {
	if cap(b.b) > maxPooledBuf {
		return
	}
	bufPool.Put(b)
}

// ---------------------------------------------------------------------------
// Frame pool
//
// Network frames are the other recurring allocation of the messaging hot
// path: every Send copies the caller's buffer (the caller may reuse it), and
// every Recv hands that copy to exactly one consumer. The pool below closes
// the loop — transports take their copy buffers from GetFrame, and the final
// consumer (the RPC read loops) returns them with PutFrame once the frame's
// bytes have been decoded or copied out.
//
// The pool is a set of power-of-two capacity classes, each a buffered
// channel used as a free list. Channels rather than sync.Pool because a
// []byte moving through an interface{} is boxed — sync.Pool.Put would
// allocate the very header the pool exists to avoid — while channel sends of
// slice values copy only the header. Misuse degrades gracefully: a frame
// that is never Put is garbage collected; a consumer that keeps a frame
// simply must not Put it.

const (
	minFrameBits    = 8  // smallest pooled class: 256 B
	maxFrameBits    = 16 // largest pooled class: 64 KiB
	frameClassCount = maxFrameBits - minFrameBits + 1
)

var framePools [frameClassCount]chan []byte

func init() {
	for i := range framePools {
		// Deeper free lists for the small classes that dominate RPC
		// traffic; a few entries suffice for the rare large frames.
		entries := 1024 >> i
		if entries < 16 {
			entries = 16
		}
		framePools[i] = make(chan []byte, entries)
	}
}

// frameClass maps a capacity to its pool index. Caller guarantees n is
// within the pooled range.
func frameClass(n int) int {
	b := bits.Len(uint(n - 1))
	if b < minFrameBits {
		b = minFrameBits
	}
	return b - minFrameBits
}

// GetFrame returns a frame buffer of length n, reusing a pooled buffer when
// one is available. Frames longer than the largest class are allocated
// directly and silently ignored by PutFrame.
//
//redbud:hotpath
func GetFrame(n int) []byte {
	if n > 1<<maxFrameBits {
		return make([]byte, n)
	}
	cls := frameClass(n)
	select {
	case f := <-framePools[cls]:
		return f[:n]
	default:
		return make([]byte, n, 1<<(cls+minFrameBits))
	}
}

// PutFrame recycles a buffer obtained from GetFrame. Only the frame's final
// consumer may call it, and the frame (or anything aliasing it) must not be
// touched afterwards. Buffers whose capacity is not a pool class — including
// every slice not minted by GetFrame — are dropped, so stray Puts cannot
// poison the pool.
//
//redbud:hotpath
func PutFrame(f []byte) {
	c := cap(f)
	if c < 1<<minFrameBits || c > 1<<maxFrameBits || c&(c-1) != 0 {
		return
	}
	select {
	case framePools[frameClass(c)] <- f[:c]:
	default: // class full; let the GC have it
	}
}

// Encode marshals m into a fresh byte slice.
func Encode(m Marshaler) []byte {
	var b Buffer
	m.MarshalWire(&b)
	return b.Bytes()
}

// Decode unmarshals p into m, requiring the whole buffer to be consumed.
func Decode(p []byte, m Unmarshaler) error {
	r := NewReader(p)
	if err := m.UnmarshalWire(r); err != nil {
		return err
	}
	if err := r.Err(); err != nil {
		return err
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("wire: %d trailing bytes after decode", r.Remaining())
	}
	return nil
}

package rpc

import (
	"testing"

	"redbud/internal/clock"
	"redbud/internal/netsim"
	"redbud/internal/wire"
)

func benchPair(b *testing.B, daemons int) *Client {
	return benchPairHandler(b, daemons, Sync(testHandler))
}

func benchPairHandler(b *testing.B, daemons int, h Handler) *Client {
	b.Helper()
	n := netsim.NewNetwork(clock.Real(1))
	n.AddHost("c", netsim.Instant())
	n.AddHost("s", netsim.Instant())
	l, err := n.Listen("s")
	if err != nil {
		b.Fatal(err)
	}
	srv := NewServer(ServerConfig{Handler: h, Daemons: daemons})
	go srv.Serve(l)
	conn, err := n.Dial("c", "s")
	if err != nil {
		b.Fatal(err)
	}
	cli := NewClient(conn, clock.Real(1))
	b.Cleanup(func() {
		cli.Close()
		srv.Close()
		l.Close()
	})
	return cli
}

func BenchmarkCallEcho(b *testing.B) {
	cli := benchPair(b, 4)
	payload := make([]byte, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.CallRaw(opEcho, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCallParallel(b *testing.B) {
	cli := benchPair(b, 8)
	payload := make([]byte, 128)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := cli.CallRaw(opEcho, payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRPCAlloc tracks allocations per call on the framing hot path:
// request encode, server decode + response encode, client response dispatch.
func BenchmarkRPCAlloc(b *testing.B) {
	cli := benchPair(b, 4)
	payload := make([]byte, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.CallRaw(opEcho, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// rawEcho returns the request body without copying; process() documents that
// the payload may alias the request frame, so this is the leanest legal
// handler and isolates the framing layer's own allocation behavior.
func rawEcho(_ uint16, body []byte) ([]byte, Deferred, error) { return body, nil, nil }

// BenchmarkWireRoundTrip measures the steady-state frame send/recv cycle —
// pooled header encode, gather-write, transport copy into a pooled frame,
// server decode/dispatch, gather-written response, client dispatch, frame
// recycle. CI gates this benchmark at 0 allocs/op.
func BenchmarkWireRoundTrip(b *testing.B) {
	cli := benchPairHandler(b, 4, rawEcho)
	payload := make([]byte, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, frame, err := cli.call(opEcho, payload)
		if err != nil {
			b.Fatal(err)
		}
		if len(p) != len(payload) {
			b.Fatalf("echo returned %d bytes", len(p))
		}
		wire.PutFrame(frame)
	}
}

// TestWireRoundTripZeroAlloc asserts the same property as the benchmark
// without needing -bench: after warmup, a call round trip performs no heap
// allocation in the whole process (client framing, transport, and server
// framing included). A small epsilon absorbs one-off runtime allocations
// (sync.Pool victim-cache refills after a GC).
func TestWireRoundTripZeroAlloc(t *testing.T) {
	assertZeroAllocRoundTrip(t, rawEcho)
}

// echoLater is a Deferred replying with a fixed 128-byte payload. Being
// zero-size, it boxes into the interface without allocating.
type echoLater struct{}

var laterReply = make([]byte, 128)

func (echoLater) Finish() ([]byte, error) { return laterReply, nil }

// TestDeferredRoundTripZeroAlloc shows a single-op frame whose handler
// defers its completion costs the server no allocation of its own.
func TestDeferredRoundTripZeroAlloc(t *testing.T) {
	assertZeroAllocRoundTrip(t, func(uint16, []byte) ([]byte, Deferred, error) { return nil, echoLater{}, nil })
}

func assertZeroAllocRoundTrip(t *testing.T, h Handler) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	cli, _ := newPair(t, ServerConfig{Handler: h, Daemons: 2})
	payload := make([]byte, 128)
	roundTrip := func() {
		p, frame, err := cli.call(opEcho, payload)
		if err != nil {
			t.Fatal(err)
		}
		if len(p) != len(payload) {
			t.Fatalf("echo returned %d bytes", len(p))
		}
		wire.PutFrame(frame)
	}
	for i := 0; i < 200; i++ {
		roundTrip() // warm the frame, buffer, and call pools
	}
	if avg := testing.AllocsPerRun(500, roundTrip); avg > 0.05 {
		t.Fatalf("steady-state round trip allocates %.3f objects/op, want 0", avg)
	}
}

func BenchmarkCompoundDegree6(b *testing.B) {
	cli := benchPair(b, 4)
	ops := make([]SubOp, 6)
	for i := range ops {
		ops[i] = SubOp{Op: opEcho, Body: make([]byte, 64)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.Compound(ops); err != nil {
			b.Fatal(err)
		}
	}
}

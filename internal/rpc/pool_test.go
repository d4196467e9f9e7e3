package rpc

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"redbud/internal/obs"
)

// gateCall issues gate op id on its own goroutine and delivers the outcome:
// nil once the reply [id] arrives.
func gateCall(cli *Client, id byte) <-chan error {
	done := make(chan error, 1)
	go func() {
		got, err := cli.CallRaw(opGate, []byte{id, 0})
		if err == nil && string(got) != string([]byte{id}) {
			err = fmt.Errorf("gate %d replied %q", id, got)
		}
		done <- err
	}()
	return done
}

// TestDeferredFrameFreesDaemon shows a frame whose Finish blocks does not
// hold the daemon: with one daemon, a synchronous frame sent behind it is
// answered while it waits, and it gets no reply before its Finish returns.
func TestDeferredFrameFreesDaemon(t *testing.T) {
	cli, g := gatedPair(t, 1)
	done := gateCall(cli, 0)
	g.expect(t, "begin 0")
	g.expect(t, "finish 0")

	cli.SetCallTimeout(5 * time.Second)
	got, err := cli.CallRaw(opEcho, []byte("x"))
	cli.SetCallTimeout(0)
	if err != nil || string(got) != "x" {
		t.Fatalf("synchronous frame behind a blocked Finish = %q, %v", got, err)
	}
	g.expect(t, "sync")
	select {
	case err := <-done:
		t.Fatalf("deferred frame replied before its Finish returned: %v", err)
	default:
	}
	close(g.release[0])
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestFreeDaemonsServeQueue shows a tail does not leave a free daemon
// unused: with two daemons and one frame blocked in Finish, two synchronous
// frames that block in their handlers run on both daemons at once.
func TestFreeDaemonsServeQueue(t *testing.T) {
	cli, g := gatedPool(t, 3, 2)
	done := gateCall(cli, 0)
	g.expect(t, "begin 0")
	g.expect(t, "finish 0")

	held := []<-chan error{done}
	for id := byte(1); id <= 2; id++ {
		ch := make(chan error, 1)
		go func() {
			got, err := cli.CallRaw(opHold, []byte{id})
			if err == nil && string(got) != string([]byte{id}) {
				err = fmt.Errorf("hold %d replied %q", id, got)
			}
			ch <- err
		}()
		held = append(held, ch)
	}
	seen := map[string]bool{}
	for len(seen) < 2 {
		select {
		case ev := <-g.events:
			seen[ev] = true
		case <-time.After(5 * time.Second):
			t.Fatalf("only %v in their handlers: a free daemon went unused", seen)
		}
	}
	if !seen["hold 1"] || !seen["hold 2"] {
		t.Fatalf("events %v, want hold 1 and hold 2", seen)
	}
	for _, ch := range g.release {
		close(ch)
	}
	for _, ch := range held {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
}

// workerGoroutines counts live worker goroutines, waiting up to a second
// for exiting ones to finish.
func workerGoroutines() int {
	n := 0
	for deadline := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		n = strings.Count(string(buf), "rpc.(*Server).worker(")
		if n == 0 || time.Now().After(deadline) {
			return n
		}
	}
}

// TestCloseWaitsForDeferredTail closes the server while a tail is blocked
// in Finish: Close returns only once the tail is done, the tail still
// replies, and no worker, busy or idle, outlives it.
func TestCloseWaitsForDeferredTail(t *testing.T) {
	cli, g := gatedPair(t, 2)
	close(g.release[1])
	if err := <-gateCall(cli, 1); err != nil {
		t.Fatal(err)
	}
	g.expect(t, "begin 1")
	g.expect(t, "finish 1")
	done := gateCall(cli, 0)
	g.expect(t, "begin 0")
	g.expect(t, "finish 0")

	closed := make(chan struct{})
	go func() {
		g.srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a tail was blocked in Finish")
	case <-time.After(50 * time.Millisecond):
	}
	close(g.release[0])
	<-closed
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the tail in flight at Close never replied")
	}
	if n := workerGoroutines(); n != 0 {
		t.Fatalf("%d worker goroutines outlive Close", n)
	}
}

// TestDeferredInflightGauges reads the pool gauges while a deferred frame
// waits in Finish: it counts as deferred, and holds no daemon.
func TestDeferredInflightGauges(t *testing.T) {
	cli, g := gatedPair(t, 1)
	reg := obs.NewRegistry()
	g.srv.RegisterMetrics(reg, nil)
	done := gateCall(cli, 0)
	g.expect(t, "begin 0")
	g.expect(t, "finish 0")
	gauge := func(name string) int64 {
		m, _ := reg.Snapshot().Get(name)
		return m.Value
	}
	// The daemon is released just after the frame's begin.
	for deadline := time.Now().Add(5 * time.Second); gauge("redbud_rpc_inflight") != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the daemon still holds a frame whose tail is blocked in Finish")
		}
	}
	if d := gauge("redbud_rpc_deferred_inflight"); d != 1 {
		t.Fatalf("deferred_inflight = %d while one Finish blocks, want 1", d)
	}
	if load := g.srv.Load(); load != 0 {
		t.Fatalf("Load() = %d with no frame queued or on a daemon, want 0", load)
	}
	close(g.release[0])
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); gauge("redbud_rpc_deferred_inflight") != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("deferred_inflight stays up after the tail replied")
		}
	}
}

// TestBusyTimeMatchesProcessSpans checks the daemon busy-time counter
// against the rpc.process spans of the same frames: in-place, deferred and
// compound frames, with frame and op CPU costs charged.
func TestBusyTimeMatchesProcessSpans(t *testing.T) {
	tr := obs.NewTracer(1024)
	h := func(op uint16, body []byte) ([]byte, Deferred, error) {
		if op == opGate {
			return nil, echoLater{}, nil
		}
		reply, err := testHandler(op, body)
		return reply, nil, err
	}
	cli, srv := newPair(t, ServerConfig{Handler: h, Daemons: 2, Tracer: tr,
		OpCost: 20 * time.Microsecond, FrameCost: 30 * time.Microsecond})
	reg := obs.NewRegistry()
	srv.RegisterMetrics(reg, nil)
	for i := 0; i < 10; i++ {
		if _, err := cli.CallRaw(opEcho, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if _, err := cli.CallRaw(opGate, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := cli.Compound([]SubOp{{Op: opGate}, {Op: opEcho}, {Op: opFail}}); err != nil {
			t.Fatal(err)
		}
	}
	srv.Close() // every daemon has recorded its last span

	var spans int
	var sum time.Duration
	for _, s := range tr.Spans() {
		if s.Name == obs.SpanRPCProcess {
			spans++
			sum += s.End.Sub(s.Start)
		}
	}
	busy, ok := reg.Snapshot().Get("redbud_rpc_busy_ns_total")
	if !ok || spans != 30 || sum <= 0 {
		t.Fatalf("busy metric %v, %d process spans summing to %v", ok, spans, sum)
	}
	if time.Duration(busy.Value) != sum {
		t.Fatalf("busy_ns = %v, rpc.process spans sum to %v", time.Duration(busy.Value), sum)
	}
}

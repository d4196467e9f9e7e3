package rpc

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// opGate is a deferred test op. Its body is [id, fail]: begin logs
// "begin <id>", Finish logs "finish <id>", then blocks until release[id] is
// closed and replies [id], or fails when fail is 1.
const opGate uint16 = 100

// opHold is a synchronous test op. Its body is [id]: the handler logs
// "hold <id>", then blocks on its daemon until release[id] is closed and
// replies [id].
const opHold uint16 = 101

type gated struct {
	events  chan string
	release []chan struct{}
	srv     *Server
}

// gatedPair serves a gated handler with n gates on one daemon. Gates a
// failing test left closed are opened at cleanup, before the server waits
// for its daemons.
func gatedPair(t *testing.T, n int) (*Client, *gated) {
	return gatedPool(t, n, 1)
}

// gatedPool is gatedPair on a pool of the given number of daemons.
func gatedPool(t *testing.T, n, daemons int) (*Client, *gated) {
	g := &gated{events: make(chan string, 64), release: make([]chan struct{}, n)}
	for i := range g.release {
		g.release[i] = make(chan struct{})
	}
	cli, srv := newPair(t, ServerConfig{Handler: g.handle, Daemons: daemons})
	g.srv = srv
	t.Cleanup(func() {
		for _, ch := range g.release {
			select {
			case <-ch:
			default:
				close(ch)
			}
		}
	})
	return cli, g
}

func (g *gated) handle(op uint16, body []byte) ([]byte, Deferred, error) {
	if op == opHold {
		g.events <- fmt.Sprintf("hold %d", body[0])
		<-g.release[body[0]]
		return []byte{body[0]}, nil, nil
	}
	if op != opGate {
		g.events <- "sync"
		reply, err := testHandler(op, body)
		return reply, nil, err
	}
	g.events <- fmt.Sprintf("begin %d", body[0])
	return nil, gateWait{g: g, id: body[0], fail: body[1] == 1}, nil
}

type gateWait struct {
	g    *gated
	id   byte
	fail bool
}

func (w gateWait) Finish() ([]byte, error) {
	w.g.events <- fmt.Sprintf("finish %d", w.id)
	<-w.g.release[w.id]
	if w.fail {
		return nil, fmt.Errorf("gate %d failed", w.id)
	}
	return []byte{w.id}, nil
}

// expect reads the next handler event and fails unless it is want.
func (g *gated) expect(t *testing.T, want string) {
	t.Helper()
	select {
	case got := <-g.events:
		if got != want {
			t.Fatalf("event %q, want %q", got, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("no event, want %q", want)
	}
}

// TestCompoundBeginsAllBeforeFinishing shows the compound loop begins every
// sub-op before it runs any deferred wait, finishes them in order, and sends
// no reply while a wait is still blocked.
func TestCompoundBeginsAllBeforeFinishing(t *testing.T) {
	cli, g := gatedPair(t, 3)
	ops := []SubOp{
		{Op: opGate, Body: []byte{0, 0}},
		{Op: opGate, Body: []byte{1, 0}},
		{Op: opEcho, Body: []byte("x")},
		{Op: opGate, Body: []byte{2, 0}},
	}
	type reply struct {
		res []SubResult
		err error
	}
	done := make(chan reply, 1)
	go func() {
		res, err := cli.Compound(ops)
		done <- reply{res, err}
	}()
	for _, ev := range []string{"begin 0", "begin 1", "sync", "begin 2", "finish 0"} {
		g.expect(t, ev)
	}
	for i := 0; i < 3; i++ {
		if i > 0 {
			g.expect(t, fmt.Sprintf("finish %d", i))
		}
		// Finish i is blocked on its gate, so the reply cannot be out.
		select {
		case r := <-done:
			t.Fatalf("reply sent while wait %d was blocked: %+v", i, r)
		default:
		}
		close(g.release[i])
	}
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	want := []string{"\x00", "\x01", "x", "\x02"}
	for i, res := range r.res {
		if res.Err != nil || string(res.Body) != want[i] {
			t.Fatalf("result %d = %q, %v; want %q", i, res.Body, res.Err, want[i])
		}
	}
}

// TestDeferredResultsKeepOrder mixes deferred and in-place sub-ops, failing
// one of each kind: every sub-op keeps its own result at its own index.
func TestDeferredResultsKeepOrder(t *testing.T) {
	cli, g := gatedPair(t, 5)
	for _, ch := range g.release {
		close(ch)
	}
	res, err := cli.Compound([]SubOp{
		{Op: opGate, Body: []byte{0, 1}},
		{Op: opFail},
		{Op: opGate, Body: []byte{1, 0}},
		{Op: opEcho, Body: []byte("e")},
		{Op: opGate, Body: []byte{2, 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantErr := []string{"gate 0 failed", "deliberate failure", "", "", ""}
	wantOp := []uint16{opGate, opFail}
	wantBody := []string{"", "", "\x01", "e", "\x02"}
	for i, r := range res {
		if wantErr[i] != "" {
			var re *RemoteError
			if !errors.As(r.Err, &re) || re.Message != wantErr[i] || re.Op != wantOp[i] {
				t.Fatalf("result %d err = %v, want %q on op %d", i, r.Err, wantErr[i], wantOp[i])
			}
			continue
		}
		if r.Err != nil || string(r.Body) != wantBody[i] {
			t.Fatalf("result %d = %q, %v; want %q", i, r.Body, r.Err, wantBody[i])
		}
	}

	// A single-op frame finishes its deferred op before replying.
	got, err := cli.CallRaw(opGate, []byte{3, 0})
	if err != nil || string(got) != "\x03" {
		t.Fatalf("single deferred op = %q, %v", got, err)
	}
	var re *RemoteError
	if _, err := cli.CallRaw(opGate, []byte{4, 1}); !errors.As(err, &re) || re.Message != "gate 4 failed" {
		t.Fatalf("single deferred failure = %v", err)
	}
}

package mds

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"redbud/internal/blockdev"
	"redbud/internal/clock"
	"redbud/internal/meta"
	"redbud/internal/proto"
	"redbud/internal/wire"
)

// heldJournal is a one-daemon MDS whose journal device runs on a manual
// clock: every journal write is held until the test advances the clock.
type heldJournal struct {
	*env
	j    *meta.Journal
	dev  *blockdev.Device
	mclk *clock.Manual
}

func newHeldJournal(t *testing.T) *heldJournal {
	t.Helper()
	mclk := clock.NewManual()
	dev := blockdev.New(blockdev.Config{Size: 64 << 20, Model: blockdev.DiskModel{PerRequest: time.Millisecond},
		DisableMerge: true, Clock: mclk})
	t.Cleanup(dev.Close)
	e, j := journaledEnv(t, dev, nil) // Daemons unset: one daemon
	// A test that fails mid-call leaves a tail waiting on the device;
	// release it so Close can return.
	t.Cleanup(func() {
		stop := autoAdvance(mclk)
		e.srv.Close()
		stop()
	})
	return &heldJournal{env: e, j: j, dev: dev, mclk: mclk}
}

// call issues op while the journal is held and checks that the daemon is
// free while the op's record waits: a ping sent behind it is answered, and
// the op itself is not. It then releases the journal and returns the op's
// outcome.
func (h *heldJournal) call(t *testing.T, op uint16, req wire.Marshaler, resp wire.Unmarshaler) error {
	t.Helper()
	appends0, _ := h.j.GroupCommitStats()
	done := make(chan error, 1)
	go func() { done <- h.cli.Call(op, req, resp) }()
	for deadline := time.Now().Add(5 * time.Second); ; runtime.Gosched() {
		if a, _ := h.j.GroupCommitStats(); a > appends0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("op %d appended no journal record", op)
		}
	}
	h.cli.SetCallTimeout(5 * time.Second)
	err := h.cli.Call(proto.OpPing, nil, nil)
	h.cli.SetCallTimeout(0)
	if err != nil {
		t.Fatalf("ping behind op %d waiting on the journal: %v", op, err)
	}
	select {
	case err := <-done:
		t.Fatalf("op %d answered before its journal write completed: %v", op, err)
	default:
	}
	stop := autoAdvance(h.mclk)
	defer stop()
	return <-done
}

// TestCreateJournalFaultOffPool fails the journal write under a create
// served by one daemon. The daemon serves other frames while the create
// waits, the create gets no reply before the journal's verdict, the client
// gets the fault, and the store stays consistent.
func TestCreateJournalFaultOffPool(t *testing.T) {
	h := newHeldJournal(t)
	h.dev.SetWriteFault(func(off, n int64) (blockdev.WriteFault, int64) { return blockdev.WriteError, 0 })
	var a proto.AttrResp
	err := h.call(t, proto.OpCreate, &proto.CreateReq{Parent: meta.RootID, Name: "f", Type: meta.TypeFile}, &a)
	if err == nil || !strings.Contains(err.Error(), "injected I/O fault") {
		t.Fatalf("create under a journal fault: %v", err)
	}
	h.dev.SetWriteFault(nil)
	if err := h.call(t, proto.OpCreate, &proto.CreateReq{Parent: meta.RootID, Name: "g", Type: meta.TypeFile}, &a); err != nil {
		t.Fatal(err)
	}
	if rep := h.srv.Store().Fsck(dataSpace); !rep.OK() {
		t.Fatalf("fsck: %v", rep)
	}
}

// TestSagaLegsFinishOffPool runs the two home-shard legs of a cross-shard
// create, CreateDetached and NSCommit, against one daemon: each waits for
// its journal record off the daemon pool and replies once it is durable.
func TestSagaLegsFinishOffPool(t *testing.T) {
	h := newHeldJournal(t)
	var a proto.AttrResp
	if err := h.call(t, proto.OpCreateDetached, &proto.CreateDetachedReq{Parent: meta.RootID, Name: "d", Type: meta.TypeFile}, &a); err != nil {
		t.Fatal(err)
	}
	if got := h.srv.Store().NSIntents(); len(got) != 1 || got[0].File != a.ID {
		t.Fatalf("intents after CreateDetached: %+v", got)
	}
	if err := h.call(t, proto.OpNSCommit, &proto.NSCommitReq{File: a.ID, Kind: meta.NSCreate}, nil); err != nil {
		t.Fatal(err)
	}
	if got := h.srv.Store().NSIntents(); len(got) != 0 {
		t.Fatalf("intents after NSCommit: %+v", got)
	}
}

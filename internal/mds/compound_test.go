package mds

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"redbud/internal/alloc"
	"redbud/internal/blockdev"
	"redbud/internal/clock"
	"redbud/internal/meta"
	"redbud/internal/obs"
	"redbud/internal/proto"
	"redbud/internal/rpc"
	"redbud/internal/wire"
)

const dataSpace = 256 << 20

// journaledEnv is newEnv over a store that journals to dev.
func journaledEnv(t *testing.T, dev *blockdev.Device, tr *obs.Tracer) (*env, *meta.Journal) {
	t.Helper()
	j := meta.NewJournal(dev, 0, 32<<20)
	ags := alloc.NewUniformAGSet(alloc.RoundRobin, 0, dataSpace, 4)
	clk := clock.Real(1) // one clock, so store and handler spans compare
	store := meta.NewStore(meta.Config{AGs: ags, Journal: j, Clock: clk, Tracer: tr})
	return newEnv(t, Config{Store: store, Clock: clk, Tracer: tr}), j
}

// commitFrame creates k files, allocates one block in each, and returns the
// k traced commits (IDs 1..k) of one compound frame.
func commitFrame(t *testing.T, e *env, k int) []rpc.SubOp {
	t.Helper()
	var ops []rpc.SubOp
	for i := 0; i < k; i++ {
		a := e.create(t, meta.RootID, fmt.Sprintf("f%d", i), meta.TypeFile)
		var lay proto.LayoutResp
		if err := e.cli.Call(proto.OpLayoutGet, &proto.LayoutGetReq{Owner: "c1", File: a.ID, Off: 0, Len: 4096, Flags: meta.LayoutWrite}, &lay); err != nil {
			t.Fatal(err)
		}
		id := uint64(i + 1)
		req := proto.CommitReq{Owner: "c1", File: a.ID, Size: 4096, MTime: time.Unix(1000, 0).UTC(),
			Extents: lay.Extents, CommitID: id, Trace: proto.TraceCtx{TraceID: id, SpanID: id}}
		ops = append(ops, rpc.SubOp{Op: proto.OpCommit, Body: wire.Encode(&req)})
	}
	return ops
}

// autoAdvance fires every timer parked on mclk (device service times) until
// the returned stop function is called.
func autoAdvance(mclk *clock.Manual) (stop func()) {
	var stopped atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stopped.Load() {
			if !mclk.AdvanceToNext() {
				runtime.Gosched()
			}
		}
	}()
	return func() { stopped.Store(true); <-done }
}

// TestCompoundCommitsShareJournalBatches sends six commits in one frame to
// an idle group-commit v1 journal. The first record's device write is held
// until all six are appended, so they land in at most two batches; waiting
// on each commit before beginning the next would take six.
func TestCompoundCommitsShareJournalBatches(t *testing.T) {
	mclk := clock.NewManual()
	dev := blockdev.New(blockdev.Config{Size: 64 << 20, Model: blockdev.DiskModel{PerRequest: time.Millisecond},
		DisableMerge: true, Clock: mclk})
	t.Cleanup(dev.Close)
	e, j := journaledEnv(t, dev, nil)
	stop := autoAdvance(mclk)
	ops := commitFrame(t, e, 6)
	stop()

	appends0, batches0 := j.GroupCommitStats()
	done := make(chan []rpc.SubResult, 1)
	go func() {
		res, err := e.cli.Compound(ops)
		if err != nil {
			res = []rpc.SubResult{{Err: err}}
		}
		done <- res
	}()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); runtime.Gosched() {
		if a, _ := j.GroupCommitStats(); a == appends0+6 {
			break
		}
	}
	stop = autoAdvance(mclk)
	res := <-done
	stop()
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("sub-op %d: %v", i, r.Err)
		}
	}
	appends, batches := j.GroupCommitStats()
	if appends-appends0 != 6 || batches-batches0 > 2 {
		t.Fatalf("6-commit frame took %d records in %d journal batches, want 6 in <= 2",
			appends-appends0, batches-batches0)
	}
}

// TestCompoundCommitJournalFault fails the journal write under a 4-commit
// frame: every sub-op reports the fault and none enters the dedup window, so
// a retransmit re-applies all four cleanly.
func TestCompoundCommitJournalFault(t *testing.T) {
	dev := blockdev.New(blockdev.Config{Size: 64 << 20, Model: blockdev.ZeroLatency(), Clock: clock.Real(1)})
	t.Cleanup(dev.Close)
	e, _ := journaledEnv(t, dev, nil)
	ops := commitFrame(t, e, 4)

	dev.SetWriteFault(func(off, n int64) (blockdev.WriteFault, int64) { return blockdev.WriteError, 0 })
	res, err := e.cli.Compound(ops)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err == nil || !strings.Contains(r.Err.Error(), "injected I/O fault") {
			t.Fatalf("sub-op %d under a journal fault: %v", i, r.Err)
		}
	}

	dev.SetWriteFault(nil)
	for pass, wantHits := range []int64{0, 4} {
		res, err := e.cli.Compound(ops)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("pass %d sub-op %d: %v", pass, i, r.Err)
			}
		}
		// The retransmit must be re-applied, not answered from a dedup
		// entry recorded for the failed attempt; a second retransmit is.
		if got := e.srv.DedupHits(); got != wantHits {
			t.Fatalf("pass %d: %d dedup hits, want %d", pass, got, wantHits)
		}
	}
	if rep := e.srv.Store().Fsck(dataSpace); !rep.OK() {
		t.Fatalf("fsck: %v", rep)
	}
}

// TestCompoundCommitSpansTile checks the store spans of every commit in a
// traced compound: lockwait, apply and journal are contiguous, link under
// the commit's mds.commit span, and lie inside it.
func TestCompoundCommitSpansTile(t *testing.T) {
	dev := blockdev.New(blockdev.Config{Size: 64 << 20, Model: blockdev.DiskModel{PerRequest: 200 * time.Microsecond},
		Clock: clock.Real(1)})
	t.Cleanup(dev.Close)
	tr := obs.NewTracer(1024)
	e, _ := journaledEnv(t, dev, tr)
	const k = 4
	res, err := e.cli.Compound(commitFrame(t, e, k))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("sub-op %d: %v", i, r.Err)
		}
	}
	spans := map[uint64]map[string]obs.Span{}
	for _, s := range tr.Spans() {
		if spans[s.CommitID] == nil {
			spans[s.CommitID] = map[string]obs.Span{}
		}
		spans[s.CommitID][s.Name] = s
	}
	for id := uint64(1); id <= k; id++ {
		byName := spans[id]
		commit, lock, apply, journal := byName[obs.SpanMDSCommit], byName[obs.SpanMDSLockWait],
			byName[obs.SpanMDSApply], byName[obs.SpanMDSJournal]
		if commit.SpanID == 0 || lock.Parent != commit.SpanID || apply.Parent != commit.SpanID || journal.Parent != commit.SpanID {
			t.Fatalf("commit %d: spans missing or unlinked: %+v", id, byName)
		}
		if !lock.End.Equal(apply.Start) || !apply.End.Equal(journal.Start) {
			t.Fatalf("commit %d: store spans do not tile: %+v %+v %+v", id, lock, apply, journal)
		}
		if lock.Start.Before(commit.Start) || journal.End.After(commit.End) {
			t.Fatalf("commit %d: store spans [%v, %v] outside mds.commit [%v, %v]",
				id, lock.Start, journal.End, commit.Start, commit.End)
		}
	}
}

package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"redbud/internal/bench"
	"redbud/internal/fsapi"
	"redbud/internal/meta"
	"redbud/internal/workload"
)

// benchWorkload is one named workload: the system it runs on and how one
// iteration drives it. drive runs inside the bubble; it must call
// it.release() when set-up ends (the op-mix probes do this at the prefill
// barrier) and it.finish() after the final drain, and returns the ops it
// attempted and how many failed.
type benchWorkload struct {
	name  string
	sys   bench.System
	opt   func(o *bench.Options)
	drive func(c *cluster, it *iteration, seed int64) (attempted, failed int64, err error)
}

var workloads = []*benchWorkload{
	{
		// The paper's headline case: small-object ingest, where commit is
		// most of each op's cost and delayed commit gains most.
		name:  "cdn-ingest",
		sys:   bench.SysRedbudDCSD,
		opt:   func(o *bench.Options) {},
		drive: opMix(func(seed int64) workload.Spec { return workload.Xcdn(32<<10, seed).Scale(0.25) }),
	},
	{
		// fsync'd mail delivery over four metadata shards: the commit RPC
		// and the journal sit on every delivery, and hashed placement turns
		// creates and removes into cross-shard sagas.
		name:  "mail-sharded",
		sys:   bench.SysRedbudDC,
		opt:   func(o *bench.Options) { o.Shards = 4 },
		drive: opMix(func(seed int64) workload.Spec { return workload.Varmail(seed) }),
	},
	{
		// Large objects: few metadata RPCs per byte, so the time goes to
		// device transfer, the elevator and host byte copies.
		name: "bulk-1m",
		sys:  bench.SysRedbudDCSD,
		opt:  func(o *bench.Options) {},
		drive: opMix(func(seed int64) workload.Spec {
			s := workload.Xcdn(1<<20, seed)
			s.Threads = 2
			return s.Scale(0.25)
		}),
	},
	{
		// Interleaved blocks of one shared file, each read back by a
		// different mount while its commit is still in flight.
		name:  "shared-readback",
		sys:   bench.SysRedbudDC,
		opt:   func(o *bench.Options) { o.EarlyVisibility = true },
		drive: sharedReadback,
	},
}

func findWorkload(name string) *benchWorkload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// opMix drives a workload.Spec on every mount through bench.RunDistributed,
// with a probe on each mount. The probes hold the last prefill close of
// every mount at a barrier, so all mounts start measuring together and
// set-up ends at one instant.
func opMix(spec func(seed int64) workload.Spec) func(*cluster, *iteration, int64) (int64, int64, error) {
	return func(c *cluster, it *iteration, seed int64) (int64, int64, error) {
		s := spec(seed)
		for i, m := range c.bc.Mounts {
			c.bc.Mounts[i] = newProbe(m, it, s.Threads*s.PrefillPerThread)
		}
		res, err := bench.RunDistributed(c.bc, s)
		it.finish()
		if err != nil {
			return 0, 0, err
		}
		if res.Errors == 0 && it.ops != res.Ops {
			it.fail("probes saw %d measured ops, the workload reports %d", it.ops, res.Ops)
		}
		if res.BytesRead > 0 && it.verified == 0 {
			it.fail("no read was verified against its content tag")
		}
		return res.Ops, res.Errors, nil
	}
}

// Shared-readback shape: one rank per mount, each writing btSteps blocks of
// btBlock bytes, interleaved rank-major per step as BT-IO lays them out.
// The first btPrefill steps are written during set-up, unmeasured.
const (
	btPrefill = 16
	btSteps   = btPrefill + 64
	btBlock   = 64 << 10
	btPath    = "/npb/btio.out"
	// The reader waits for the block's data to turn durable, checking every
	// btPoll, and counts the block lost after btWaitMax.
	btPoll    = 200 * time.Microsecond
	btWaitMax = 5 * time.Second
	// Each measured step starts after a compute phase drawn uniformly from
	// [0, btCompute), so the seed shapes when the ranks' I/O collides.
	btCompute = 2 * time.Millisecond
)

func btOff(st, r, ranks int) int64 { return (int64(st)*int64(ranks) + int64(r)) * btBlock }

// btBlockData is the content of rank r's block in step st, distinct per
// block and per seed.
func btBlockData(seed int64, st, r int) []byte {
	p := make([]byte, btBlock)
	x := uint32(seed)*2654435761 ^ uint32(st)<<16 ^ uint32(r)
	for i := range p {
		x = x*1664525 + 1013904223
		p[i] = byte(x >> 24)
	}
	return p
}

// sharedReadback: each rank computes, then writes its block of a step; then
// another rank's mount, picked at random, opens the file and reads that
// block back as soon as its data is durable, while the writer's commit is
// still queued: early visibility must serve it, byte for byte, through the
// intent path. One op is one block, from the write until a peer has
// verified it.
//
// The reader learns durability from outside the clients (the MDS layout and
// Device.IsDurable, which cost no modeled time) rather than by polling
// reads: the device serves reads strictly before writes, so readers that
// re-read a block until it appears keep its own write from ever landing.
func sharedReadback(c *cluster, it *iteration, seed int64) (int64, int64, error) {
	mounts := c.bc.Mounts
	ranks := len(mounts)
	if err := mounts[0].Mkdir("/npb"); err != nil {
		return 0, 0, err
	}
	handles := make([]fsapi.File, ranks)
	for r := range handles {
		var err error
		if r == 0 {
			handles[r], err = mounts[0].Create(btPath)
		} else {
			handles[r], err = mounts[r].Open(btPath)
		}
		if err != nil {
			return 0, 0, err
		}
	}
	dir, err := c.stores[0].Lookup(meta.RootID, "npb")
	if err != nil {
		return 0, 0, err
	}
	file, err := c.stores[0].Lookup(dir.ID, "btio.out")
	if err != nil {
		return 0, 0, err
	}
	var wg sync.WaitGroup
	prefill := make([]error, ranks)
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for st := 0; st < btPrefill && prefill[r] == nil; st++ {
				_, prefill[r] = handles[r].WriteAt(btBlockData(seed, st, r), btOff(st, r, ranks))
			}
		}()
	}
	wg.Wait()
	for _, err := range prefill {
		if err != nil {
			return 0, 0, err
		}
	}
	it.release()

	var mu sync.Mutex
	var attempted, failed int64
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*7919 + int64(r)))
			buf := make([]byte, btBlock)
			for st := btPrefill; st < btSteps; st++ {
				// The compute phase between two I/O steps, then this step's
				// block, verified by some other rank's mount.
				it.clk.Sleep(time.Duration(rng.Int63n(int64(btCompute))))
				peer := mounts[(r+1+rng.Intn(ranks-1))%ranks]
				data := btBlockData(seed, st, r)
				off := btOff(st, r, ranks)
				start := it.clk.Now()
				_, err := handles[r].WriteAt(data, off)
				if err == nil {
					err = waitDurable(c, it, file.ID, off)
				}
				if err == nil {
					read := it.clk.Now()
					err = readBack(peer, buf, data, off)
					it.record(serRead, it.clk.Since(read))
				}
				if err == nil {
					it.opDone(start)
				}
				mu.Lock()
				attempted++
				if err != nil {
					failed++
					it.fail("rank %d step %d: %v", r, st, err)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, h := range handles {
		if err := h.Close(); err != nil {
			return attempted, failed, err
		}
	}
	c.bc.Drain()
	it.finish()

	// After the drain every block is committed: one whole-file read on the
	// creating mount must return each block exactly.
	f, err := mounts[0].Open(btPath)
	if err != nil {
		return attempted, failed, err
	}
	defer f.Close()
	all := make([]byte, int64(ranks)*btSteps*btBlock)
	if n, err := f.ReadAt(all, 0); err != nil || n != len(all) {
		return attempted, failed, fmt.Errorf("final read: %d of %d bytes, %v", n, len(all), err)
	}
	for st := 0; st < btSteps; st++ {
		for r := 0; r < ranks; r++ {
			off := btOff(st, r, ranks)
			if string(all[off:off+btBlock]) != string(btBlockData(seed, st, r)) {
				it.fail("final read: block step %d rank %d differs", st, r)
			}
		}
	}
	return attempted, failed, nil
}

// waitDurable blocks until every extent backing [off, off+btBlock) of the
// file is durable on its device. The extents are known once the write has
// returned (allocation precedes it); durability is then polled every
// btPoll of virtual time.
func waitDurable(c *cluster, it *iteration, id meta.FileID, off int64) error {
	lay, err := c.stores[0].GetLayout(id, off, btBlock, meta.LayoutWantUncommitted)
	if err != nil {
		return err
	}
	var covered int64
	for _, e := range lay.Extents {
		covered += min(e.End(), off+btBlock) - max(e.FileOff, off)
	}
	if covered != btBlock {
		return fmt.Errorf("block at %d: layout covers %d of %d bytes after the write", off, covered, btBlock)
	}
	for waited := time.Duration(0); ; waited += btPoll {
		durable := true
		for _, e := range lay.Extents {
			durable = durable && c.devices[e.Dev].IsDurable(e.VolOff, e.Len)
		}
		if durable {
			return nil
		}
		if waited >= btWaitMax {
			return fmt.Errorf("block at %d: not durable after %v", off, btWaitMax)
		}
		it.clk.Sleep(btPoll)
	}
}

// readBack reads one block through a fresh open on a peer mount and checks
// it byte for byte.
func readBack(fs fsapi.FileSystem, buf, want []byte, off int64) error {
	f, err := fs.Open(btPath)
	if err != nil {
		return err
	}
	n, err := f.ReadAt(buf, off)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if n != len(want) || string(buf[:n]) != string(want) {
		return fmt.Errorf("block at %d: read %d bytes that differ from the %d written", off, n, len(want))
	}
	return nil
}

// checkCluster runs the post-drain invariants: fsck on every shard, the
// cross-shard fsck, and the ordered-write invariant (no committed extent
// whose data is not durable).
func checkCluster(c *cluster, it *iteration) {
	for i, s := range c.stores {
		if r := s.Fsck(c.agTotals[i]); !r.OK() {
			it.fail("shard %d: %s: %v", i, r, r.Problems)
		}
	}
	if p := meta.FsckCluster(c.stores); len(p) > 0 {
		it.fail("cluster fsck: %v", p)
	}
	for i, s := range c.stores {
		bad := s.CheckConsistent(func(dev int, off, n int64) bool {
			return dev < len(c.devices) && c.devices[dev].IsDurable(off, n)
		})
		if len(bad) > 0 {
			it.fail("shard %d: %d committed extents are not durable, first %+v", i, len(bad), bad[0])
		}
	}
}

package client

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"redbud/internal/netsim"
	"redbud/internal/rpc"
)

// raClient mounts a client with read-ahead enabled on the test cluster.
func raClient(tc *testCluster, window int64) *Client {
	tc.nextID++
	host := fmt.Sprintf("ra-client-%d", tc.nextID)
	tc.net.AddHost(host, netsim.Instant())
	conn, err := tc.net.Dial(host, "mds")
	if err != nil {
		tc.t.Fatal(err)
	}
	devs := make(map[uint32]BlockDevice, len(tc.devices))
	for id, d := range tc.devices {
		devs[id] = d
	}
	return New(Config{
		Name:      host,
		MDS:       rpc.NewClient(conn, tc.clk),
		Devices:   devs,
		Clock:     tc.clk,
		Mode:      DelayedCommit,
		ReadAhead: window,
	})
}

func waitRA(t *testing.T, c *Client, wantPages int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, pages := c.ReadAheadStats(); pages >= wantPages {
			return
		}
		time.Sleep(time.Millisecond)
	}
	trig, pages := c.ReadAheadStats()
	t.Fatalf("read-ahead did not install %d pages (triggered=%d installed=%d)", wantPages, trig, pages)
}

func TestReadAheadPrefetchesSequential(t *testing.T) {
	tc := newCluster(t)
	w := tc.client(SyncCommit, 0)
	data := pattern(256<<10, 7)
	writeFile(t, w, "/stream.bin", data)
	w.Close()

	r := raClient(tc, 128<<10)
	defer r.Close()
	f, err := r.Open("/stream.bin")
	if err != nil {
		t.Fatal(err)
	}
	// Sequential reads: the first triggers a prefetch of the next window.
	buf := make([]byte, 32<<10)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	waitRA(t, r, 1)
	if _, err := f.ReadAt(buf, 32<<10); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data[32<<10:64<<10]) {
		t.Fatal("prefetched window corrupted")
	}
	trig, pages := r.ReadAheadStats()
	if trig == 0 || pages == 0 {
		t.Fatalf("no prefetch: triggered=%d pages=%d", trig, pages)
	}
}

func TestReadAheadIgnoresRandomReads(t *testing.T) {
	tc := newCluster(t)
	w := tc.client(SyncCommit, 0)
	writeFile(t, w, "/rand.bin", pattern(256<<10, 3))
	w.Close()

	r := raClient(tc, 128<<10)
	defer r.Close()
	f, err := r.Open("/rand.bin")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	// Jumping around (never continuing a run) must not trigger prefetch
	// beyond the off==0 bootstrap.
	for _, off := range []int64{100 << 10, 10 << 10, 200 << 10, 50 << 10} {
		if _, err := f.ReadAt(buf, off); err != nil {
			t.Fatal(err)
		}
	}
	if trig, _ := r.ReadAheadStats(); trig != 0 {
		t.Fatalf("random reads triggered %d prefetches", trig)
	}
}

func TestReadAheadNeverServesStaleData(t *testing.T) {
	// A write racing the prefetch: afterwards every read must see the
	// write, prefetch or not.
	tc := newCluster(t)
	c := raClient(tc, 256<<10)
	defer c.Close()
	base := pattern(512<<10, 1)
	f, err := c.Create("/hot.bin")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(base, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64<<10)
	for round := 0; round < 10; round++ {
		// Sequential read to arm the prefetcher...
		if _, err := f.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
		// ...while a write lands inside the window it will fetch.
		patch := bytes.Repeat([]byte{byte(0xA0 + round)}, 8192)
		off := int64(128<<10) + int64(round)*8192
		if _, err := f.ReadAt(buf, 64<<10); err != nil { // trigger
			t.Fatal(err)
		}
		if _, err := f.WriteAt(patch, off); err != nil {
			t.Fatal(err)
		}
		// Give any in-flight prefetch time to finish (and be discarded).
		time.Sleep(2 * time.Millisecond)
		got := make([]byte, len(patch))
		if _, err := f.ReadAt(got, off); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, patch) {
			t.Fatalf("round %d: stale data after prefetch/write race", round)
		}
	}
}

func TestReadAheadDisabledByDefault(t *testing.T) {
	tc := newCluster(t)
	c := tc.client(DelayedCommit, 0)
	defer c.Close()
	writeFile(t, c, "/f", pattern(128<<10, 2))
	f, _ := c.Open("/f")
	buf := make([]byte, 32<<10)
	f.ReadAt(buf, 0)
	f.ReadAt(buf, 32<<10)
	if trig, _ := c.ReadAheadStats(); trig != 0 {
		t.Fatalf("read-ahead fired while disabled: %d", trig)
	}
}

func TestReadAheadPagesAreIndependent(t *testing.T) {
	// Prefetched pages share the device read buffer: a write into one of
	// them must leave its neighbours alone.
	tc := newCluster(t)
	w := tc.client(SyncCommit, 0)
	data := pagePattern(256<<10, 3)
	writeFile(t, w, "/ra.bin", data)
	w.Close()

	r := raClient(tc, 128<<10)
	defer r.Close()
	f, err := r.Open("/ra.bin")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32<<10)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	waitRA(t, r, 32) // the whole 128 KiB window
	patch := bytes.Repeat([]byte{0xEE}, 100)
	off := int64(64<<10) + 10 // inside the prefetched window
	if _, err := f.WriteAt(patch, off); err != nil {
		t.Fatal(err)
	}
	copy(data[off:], patch)
	got := make([]byte, 128<<10)
	if _, err := f.ReadAt(got, 32<<10); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[32<<10:160<<10]) {
		t.Fatal("a write into one prefetched page disturbed its neighbours")
	}
}

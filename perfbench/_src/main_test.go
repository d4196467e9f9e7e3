//go:build goexperiment.synctest

package main

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"testing/synctest"
	"time"

	"redbud/internal/bench"
	"redbud/internal/clock"
	"redbud/internal/fsapi"
	"redbud/internal/netsim"
)

// bounds reads the end-to-end bounds the benchmark declares.
func bounds(t *testing.T) map[string]float64 {
	t.Helper()
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}

// modeled runs iterations of w with seeds seed, seed+1, ... and returns the
// ops they attempted and their run-level modeled end-to-end metrics, as the
// benchmark computes them.
func modeled(t *testing.T, w *benchWorkload, seed int64, iterations int, traced bool) (int64, map[string]float64) {
	t.Helper()
	var a run
	for i := 0; i < iterations; i++ {
		a.add(runIteration(w, seed+int64(i), traced))
	}
	if len(a.failures) > 0 || a.failed > 0 {
		t.Fatalf("%s (traced %v): %d failed ops, failures %v", w.name, traced, a.failed, a.failures)
	}
	m := endToEnd(&a)
	return a.attempted, map[string]float64{
		"ops_per_s":  m["ops_per_s"].Value,
		"op_mean_ms": m["op_mean_ms"].Value,
		"op_p99_ms":  m["op_p99_ms"].Value,
	}
}

func within(t *testing.T, what string, got, want map[string]float64, bound map[string]float64) {
	t.Helper()
	for k, w := range want {
		if d := got[k]/w - 1; d > bound[k] || d < -bound[k] {
			t.Errorf("%s: %s = %.6g against %.6g (%+.2f%%), bound ±%.0f%%", what, k, got[k], w, 100*d, 100*bound[k])
		}
	}
}

// The traced run assembles its cluster by hand and wraps conns and devices;
// it must run the same workload as bench.Build's cluster: the same op
// count, and modeled throughput within the benchmark's bound.
func TestTracedMatchesPlain(t *testing.T) {
	b := bounds(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plainOps, plain := modeled(t, w, 7, 1, false)
			tracedOps, traced := modeled(t, w, 7, 1, true)
			if plainOps != tracedOps {
				t.Errorf("traced run attempted %d ops, plain %d", tracedOps, plainOps)
			}
			within(t, "traced vs plain", map[string]float64{"ops_per_s": traced["ops_per_s"]},
				map[string]float64{"ops_per_s": plain["ops_per_s"]}, b)
		})
	}
}

// Modeled time is virtual, so how many host threads run the simulation
// must not move the modeled metrics beyond the benchmark's bounds. The
// metrics are run-level, as the benchmark reports them: one iteration's p99
// varies by more than the bound from iteration to iteration whatever
// GOMAXPROCS is.
func TestModeledMetricsIgnoreGOMAXPROCS(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("needs two CPUs")
	}
	b := bounds(t)
	w := findWorkload("cdn-ingest")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	_, one := modeled(t, w, 11, 7, false)
	runtime.GOMAXPROCS(2)
	_, two := modeled(t, w, 11, 7, false)
	within(t, "GOMAXPROCS 2 vs 1", two, one, b)
}

// fakeCollective is a file that supports collective writes.
type fakeCollective struct{ fsapi.File }

func (fakeCollective) WriteCollective([]fsapi.CollectiveBlock) error { return nil }

// The wrappers keep the optional interfaces the code under test looks for.
// (Checks inside a bubble report with t.Error: FailNow must not run on a
// bubble goroutine.)
func TestWrappersForwardOptionalInterfaces(t *testing.T) {
	synctest.Run(func() {
		opt := bench.DefaultOptions()
		opt.Scale, opt.Clients = 1, 1
		c := bench.Build(bench.SysRedbudDC, opt)
		defer c.Close()
		p := newProbe(c.Mounts[0], newIteration(c.Clock, 1), 0)
		if err := p.Drain(); err != nil {
			t.Errorf("Drain through the probe: %v", err)
		}
		f, err := p.Create("/f")
		if err != nil {
			t.Error(err)
			return
		}
		defer f.Close()
		if _, ok := f.(fsapi.CollectiveWriter); ok {
			t.Error("probe file claims CollectiveWriter; the client file has none")
		}
		if _, ok := p.wrap(&probeFile{p: p, f: fakeCollective{f}}).(fsapi.CollectiveWriter); !ok {
			t.Error("probe file hides the wrapped file's CollectiveWriter")
		}
	})

	synctest.Run(func() {
		n := netsim.NewNetwork(clock.Real(1))
		n.AddHost("a", netsim.Instant())
		n.AddHost("b", netsim.Instant())
		lis, err := n.Listen("b")
		if err != nil {
			t.Error(err)
			return
		}
		defer lis.Close()
		conn, err := n.Dial("a", "b")
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		if _, ok := conn.(netsim.VectorConn); !ok {
			t.Log("netsim conns do not gather-write; nothing to forward")
			return
		}
		var wrapped netsim.Conn = &tracedConn{Conn: conn, it: newIteration(clock.Real(1), 1), sent: map[uint64]time.Time{}}
		if _, ok := wrapped.(netsim.VectorConn); !ok {
			t.Error("tracedConn hides the conn's VectorConn")
		}
		server, err := lis.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		if err := netsim.SendVec(wrapped, []byte("head"), []byte("-body")); err != nil {
			t.Error(err)
			return
		}
		if got, err := server.Recv(); err != nil || string(got) != "head-body" {
			t.Errorf("gathered frame = %q, %v", got, err)
		}
	})
}

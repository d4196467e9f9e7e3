//go:build goexperiment.synctest

// go.mod says go 1.22, whose default asynctimerchan=1 makes synctest.Run
// panic.
//
//go:debug asynctimerchan=0

// Command redbud-perfbench is the Redbud benchmark. Each workload iteration
// builds a fresh cluster inside a testing/synctest bubble at clock scale 1,
// so modeled time is virtual and host CPU never counts as modeled time; the
// program's real cost is measured from outside the bubble's clock. It
// repeats iterations for --seconds of wall time and prints one JSON result
// line: the end-to-end metrics, or with --trace 1 the per-layer metrics of
// traced iterations (clusters assembled with conn and device wrappers).
//
//	GOEXPERIMENT=synctest go build -o redbud-perfbench .
//	./redbud-perfbench --workload cdn-ingest --seed 1 --seconds 10 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"testing/synctest"
	"time"

	"redbud/internal/bench"
)

// Iteration floor per run: enough set-ups for a median, and at least
// minBatches batches of op samples (a batch is consecutive iterations holding
// at least batchSamples ops, so its p99 has ten samples beyond it).
const (
	minIterations = 3
	minBatches    = 3
	batchSamples  = 1000
	maxRunWall    = 150 * time.Second
)

// iterResult is what one iteration contributes to a run.
type iterResult struct {
	attempted, failed int64
	dur, drain        time.Duration // virtual
	setup             time.Duration // wall
	host              hostSnap      // measured-phase deltas
	opLat             []float64
	series            map[string][]float64
	sums              map[string]float64
	commitHist        []int64
	commitBounds      []float64
	failures          []string
}

// runIteration runs one iteration of w in its own bubble. It first collects
// the previous iteration's garbage, so that work is not charged to this one.
func runIteration(w *benchWorkload, seed int64, traced bool) *iterResult {
	runtime.GC()
	// The result crosses out of the bubble on a channel: the race detector
	// sees no ordering between the bubble's end and Run returning.
	out := make(chan *iterResult, 1)
	synctest.Run(func() { out <- iterate(w, seed, traced) })
	return <-out
}

func iterate(w *benchWorkload, seed int64, traced bool) *iterResult {
	opt := bench.DefaultOptions()
	opt.Scale = 1
	opt.Seed = seed
	w.opt(&opt)

	it := newIteration(nil, opt.Clients)
	var c *cluster
	if traced {
		c = buildTraced(w.sys, opt, it)
	} else {
		c = buildPlain(w.sys, opt)
	}
	it.clk = c.bc.Clock
	r := &iterResult{sums: map[string]float64{}}

	var before layerSnap
	if traced {
		stop, sampled := make(chan struct{}), make(chan struct{})
		it.onRelease = func() {
			before = readLayers(c)
			go sampleNetWait(c, it, stop, sampled)
		}
		it.onFinish = func() {
			if before.v == nil {
				return // failed before the measured phase began
			}
			close(stop)
			<-sampled
			readLayers(c).addDelta(before, r.sums, &r.commitHist, &r.commitBounds)
			r.sums["net_frames"] = float64(it.netFrames.Load())
			r.sums["net_bytes"] = float64(it.netBytes.Load())
		}
	}
	attempted, failed, err := w.drive(c, it, seed)
	if err != nil {
		it.fail("%s: %v", w.name, err)
		if it.measured.Load() {
			it.finish()
		}
	}
	checkCluster(c, it)
	c.close()

	r.attempted, r.failed = attempted, failed
	r.dur = it.v1.Sub(it.v0)
	if traced {
		r.sums["dev_capacity_s"] = r.dur.Seconds() * float64(len(c.devices))
		r.sums["journal_capacity_s"] = r.dur.Seconds() * float64(len(c.metaDevs))
	}
	r.drain = it.v1.Sub(it.lastOpEnd)
	r.setup = it.setup
	r.host = hostSnap{cpu: it.h1.cpu - it.h0.cpu, mallocs: it.h1.mallocs - it.h0.mallocs, numGC: it.h1.numGC - it.h0.numGC}
	r.opLat, r.series, r.failures = it.opLat, it.series, it.failures
	return r
}

// run aggregates the iterations of one run.
type run struct {
	iters             []*iterResult
	attempted, failed int64
	ops               int64
	dur               time.Duration
	drains, setups    []float64
	cpuPerOp          []float64 // host µs per op, one per iteration
	allocsPerOp       []float64
	numGC             uint32
	opLat             []float64
	failures          []string
}

func (a *run) add(r *iterResult) {
	a.iters = append(a.iters, r)
	a.attempted += r.attempted
	a.failed += r.failed
	a.ops += int64(len(r.opLat))
	a.dur += r.dur
	a.drains = append(a.drains, ms(r.drain))
	a.setups = append(a.setups, r.setup.Seconds())
	if n := float64(len(r.opLat)); n > 0 {
		a.cpuPerOp = append(a.cpuPerOp, float64(r.host.cpu.Microseconds())/n)
		a.allocsPerOp = append(a.allocsPerOp, float64(r.host.mallocs)/n)
	}
	a.numGC += r.host.numGC
	a.opLat = append(a.opLat, r.opLat...)
	a.failures = append(a.failures, r.failures...)
}

func (a *run) opsPerSec() float64 { return ratio(float64(a.ops), a.dur.Seconds()) }

// batches splits the run's op latencies into batches of consecutive
// iterations with at least batchSamples samples each; a short tail joins the
// last batch.
func (a *run) batches() [][]float64 {
	var out [][]float64
	var cur []float64
	for _, r := range a.iters {
		cur = append(cur, r.opLat...)
		if len(cur) >= batchSamples {
			out = append(out, cur)
			cur = nil
		}
	}
	if len(out) == 0 {
		return [][]float64{cur}
	}
	out[len(out)-1] = append(out[len(out)-1], cur...)
	return out
}

// p99 is the median over batches of each batch's p99. Iterations differ
// more in their tails than in anything else, so one tail-heavy iteration
// would move a p99 of the pooled samples; it moves the median of batches
// little.
func (a *run) p99() float64 {
	var v []float64
	for _, b := range a.batches() {
		v = append(v, quantile(sortedCopy(b), 0.99))
	}
	return median(v)
}

func mean(v []float64) float64 {
	var t float64
	for _, x := range v {
		t += x
	}
	return ratio(t, float64(len(v)))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// endToEnd computes the user-visible metrics of a run of plain iterations.
func endToEnd(a *run) map[string]metric {
	return map[string]metric{
		"ops_per_s":          {a.opsPerSec(), "ops/s"},
		"op_mean_ms":         {mean(a.opLat), "ms"},
		"op_p99_ms":          {a.p99(), "ms"},
		"setup_s":            {median(a.setups), "s"},
		"host_allocs_per_op": {median(a.allocsPerOp), "allocs/op"},
		"host_peak_rss_mb":   {peakRSSMB(), "MB"},
	}
}

// perLayer computes the per-layer metrics from traced iterations, with the
// plain iterations of the same run for the tracing-overhead gap.
func perLayer(traced, plain *run, cpu map[string]float64) map[string]metric {
	sums := map[string]float64{}
	series := map[string][]float64{}
	var hist []int64
	var bounds []float64
	for _, r := range traced.iters {
		for k, v := range r.sums {
			sums[k] += v
		}
		for k, v := range r.series {
			series[k] = append(series[k], v...)
		}
		if hist == nil {
			hist = make([]int64, len(r.commitHist))
			bounds = r.commitBounds
		}
		for i, n := range r.commitHist {
			hist[i] += n
		}
	}
	ops := float64(traced.ops)
	p := func(s string, q float64) float64 { return quantile(sortedCopy(series[s]), q) }
	m := map[string]metric{
		"client.create_p99_ms":           {p(serCreate, 0.99), "ms"},
		"client.close_p99_ms":            {p(serClose, 0.99), "ms"},
		"client.fsync_p99_ms":            {p(serFsync, 0.99), "ms"},
		"client.remove_p99_ms":           {p(serRemove, 0.99), "ms"},
		"client.read_p99_ms":             {p(serRead, 0.99), "ms"},
		"client.rpcs_per_op":             {ratio(sums["rpcs"], ops), "rpcs/op"},
		"client.commits_per_frame":       {ratio(sums["commits_sent"], sums["commit_rpcs"]), "commits/frame"},
		"client.queue_dedup_ratio":       {ratio(sums["queue_dedup"], sums["queue_dedup"]+sums["queue_enqueued"]), "ratio"},
		"client.retries":                 {sums["redbud_client_retries_total"], "count"},
		"rpc.call_p50_ms":                {p(serRPC, 0.50), "ms"},
		"rpc.call_p99_ms":                {p(serRPC, 0.99), "ms"},
		"net.frames_per_op":              {ratio(sums["net_frames"], ops), "frames/op"},
		"net.bytes_per_op":               {ratio(sums["net_bytes"], ops), "B/op"},
		"net.mds_wait_ms":                {mean(series[serNetW]), "ms"},
		"mds.server_p99_ms":              {p(serServer, 0.99), "ms"},
		"mds.commit_p99_ms":              {bucketQuantile(bounds, hist, 0.99) * 1e3, "ms"},
		"mds.subops_per_frame":           {ratio(sums["redbud_rpc_subops_total"], sums["redbud_rpc_processed_total"]), "ops/frame"},
		"meta.journal_records_per_batch": {ratio(sums["redbud_meta_journal_appends_total"], sums["redbud_meta_journal_batches_total"]), "records/batch"},
		"meta.journal_dev_util":          {ratio(sums["journal_busy_s"], sums["journal_capacity_s"]), "ratio"},
		"meta.ns_sagas_per_op":           {ratio(sums["redbud_meta_ns_prepares_total"], ops), "sagas/op"},
		"meta.ns_aborts":                 {sums["redbud_meta_ns_aborts_total"], "count"},
		"alloc.delegations_per_gb":       {ratio(sums["delegations"], sums["app_bytes_written"]/1e9), "1/GB"},
		"dev.write_p50_ms":               {p(serDevW, 0.50), "ms"},
		"dev.write_p99_ms":               {p(serDevW, 0.99), "ms"},
		"dev.read_p99_ms":                {p(serDevR, 0.99), "ms"},
		"dev.merge_ratio":                {ratio(sums["dev_merged"], sums["dev_submitted"]), "ratio"},
		"dev.seeks_per_dispatch":         {ratio(sums["dev_seeks"], sums["dev_dispatched"]), "ratio"},
		"dev.util":                       {ratio(sums["dev_busy_s"], sums["dev_capacity_s"]), "ratio"},
		"dev.write_amp":                  {ratio(sums["dev_bytes_written"], sums["app_bytes_written"]), "ratio"},
		"dev.bytes_read_per_op":          {ratio(sums["dev_bytes_read"], ops), "B/op"},
		"op_p50_ms":                      {quantile(sortedCopy(plain.opLat), 0.5), "ms"},
		"op_samples":                     {float64(len(plain.opLat)), "count"},
		"drain_ms":                       {median(traced.drains), "ms"},
		"host.cpu_us_per_op":             {median(plain.cpuPerOp), "us/op"},
		"host.gc_per_kop":                {1000 * ratio(float64(plain.numGC), float64(plain.ops)), "1/kop"},
		"trace.ops_per_s_gap":            {ratio(traced.opsPerSec(), plain.opsPerSec()) - 1, "ratio"},
		"failed_frac":                    {ratio(float64(traced.failed+plain.failed), float64(traced.attempted+plain.attempted)), "ratio"},
	}
	for _, pkg := range cpuPackages {
		m["cpu."+pkg] = metric{cpu[pkg], "share"}
	}
	return m
}

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "wall seconds of iterations to measure")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from traced iterations")
	flag.Parse()
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: redbud-perfbench --workload {%s} --seed N --seconds S --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	// Modeled metrics do not depend on GOMAXPROCS; host ones do, and one
	// thread keeps them free of idle spinning and parallel GC.
	runtime.GOMAXPROCS(1)

	start := monoNow()
	deadline := start + int64(*seconds)*int64(time.Second)
	var plain, traced run
	cpuWeighted := map[string]float64{}
	var cpuTotal float64
	for i := 0; ; i++ {
		iterSeed := *seed*1000 + int64(i)
		plain.add(runIteration(w, iterSeed, false))
		if *trace == 1 {
			var prof bytes.Buffer
			if err := pprof.StartCPUProfile(&prof); err != nil {
				fmt.Fprintln(os.Stderr, "cpu profile:", err)
				os.Exit(1)
			}
			t0 := monoNow()
			traced.add(runIteration(w, iterSeed, true))
			pprof.StopCPUProfile()
			shares, err := profileShares(prof.Bytes())
			if err != nil {
				fmt.Fprintln(os.Stderr, "cpu profile:", err)
				os.Exit(1)
			}
			wall := float64(monoNow() - t0)
			for k, v := range shares {
				cpuWeighted[k] += v * wall
			}
			cpuTotal += wall
		}
		now := monoNow()
		enough := len(plain.iters) >= minIterations && len(plain.opLat) >= minBatches*batchSamples &&
			(*trace == 0 || len(traced.opLat) >= batchSamples)
		if (now >= deadline && enough) || now-start >= int64(maxRunWall) {
			break
		}
	}

	res := result{Attempted: plain.attempted, Failed: plain.failed}
	failures := plain.failures
	if *trace == 1 {
		for k := range cpuWeighted {
			cpuWeighted[k] /= cpuTotal
		}
		res.Metrics = perLayer(&traced, &plain, cpuWeighted)
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		failures = append(failures, traced.failures...)
		if plain.attempted != traced.attempted {
			failures = append(failures, fmt.Sprintf("traced iterations attempted %d ops, plain %d", traced.attempted, plain.attempted))
		}
	} else {
		res.Metrics = endToEnd(&plain)
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			failures = append(failures, fmt.Sprintf("metric %s is %v", k, m.Value))
			res.Metrics[k] = metric{0, m.Unit}
		}
	}
	res.Correct = len(failures) == 0 && res.Failed == 0
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "FAIL:", f)
	}
	report(os.Stderr, w.name, &plain, res)
	out, err := json.Marshal(res)
	if err != nil {
		panic(err)
	}
	fmt.Println(string(out))
}

func report(f *os.File, name string, plain *run, res result) {
	fmt.Fprintf(f, "%s: %d iterations, %d ops, %d op samples, GOMAXPROCS %d\n",
		name, len(plain.iters), plain.attempted, len(plain.opLat), runtime.GOMAXPROCS(0))
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(f, "  %-32s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, "|")
}

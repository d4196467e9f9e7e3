package main

import (
	"math"
	"sort"
	"time"

	"redbud/internal/obs"
)

// layerSnap is a reading of every cumulative counter the traced run turns
// into a per-layer metric; two readings bracket the measured phase.
type layerSnap struct {
	v map[string]float64
	// commitBounds/commitCounts hold the MDS commit-latency histogram,
	// summed over shards (every shard uses the same bounds).
	commitBounds []float64
	commitCounts []int64
}

// registry counters read by name, summed over every label set and source.
var layerCounters = []string{
	"redbud_client_retries_total",
	"redbud_rpc_processed_total",
	"redbud_rpc_subops_total",
	"redbud_meta_journal_appends_total",
	"redbud_meta_journal_batches_total",
	"redbud_meta_ns_prepares_total",
	"redbud_meta_ns_aborts_total",
}

func readLayers(c *cluster) layerSnap {
	s := layerSnap{v: map[string]float64{}}
	for _, cl := range c.bc.Redbud {
		st := cl.Stats()
		s.v["rpcs"] += float64(st.RPCs)
		s.v["commits_sent"] += float64(st.CommitsSent)
		s.v["commit_rpcs"] += float64(st.CommitRPCs)
		s.v["queue_enqueued"] += float64(st.QueueEnqueued)
		s.v["queue_dedup"] += float64(st.QueueDedup)
		s.v["delegations"] += float64(st.Delegations)
		s.v["app_bytes_written"] += float64(st.BytesWritten)
	}
	for _, d := range c.devices {
		st := d.Stats()
		s.v["dev_submitted"] += float64(st.Submitted)
		s.v["dev_dispatched"] += float64(st.Dispatched)
		s.v["dev_merged"] += float64(st.Merged)
		s.v["dev_seeks"] += float64(st.Seeks)
		s.v["dev_bytes_written"] += float64(st.BytesWrite)
		s.v["dev_bytes_read"] += float64(st.BytesRead)
		s.v["dev_busy_s"] += st.BusyTime.Seconds()
	}
	for _, d := range c.metaDevs {
		s.v["journal_busy_s"] += d.Stats().BusyTime.Seconds()
	}
	regs := append([]*obs.Registry{c.clientReg}, c.shardRegs...)
	for _, r := range regs {
		for _, m := range r.Snapshot().Metrics {
			for _, name := range layerCounters {
				if m.Name == name {
					s.v[name] += float64(m.Value)
				}
			}
		}
	}
	for _, srv := range c.mdss {
		bounds, counts := srv.CommitLatency().Buckets()
		if s.commitCounts == nil {
			s.commitBounds, s.commitCounts = bounds, make([]int64, len(counts))
		}
		for i, n := range counts {
			s.commitCounts[i] += n
		}
	}
	return s
}

// addDelta adds after−before of every counter to sums, and of every
// commit-latency bucket to hist (allocated, with bounds, on first use).
func (after layerSnap) addDelta(before layerSnap, sums map[string]float64, hist *[]int64, bounds *[]float64) {
	for k, v := range after.v {
		sums[k] += v - before.v[k]
	}
	if *hist == nil {
		*hist = make([]int64, len(after.commitCounts))
		*bounds = after.commitBounds
	}
	for i := range after.commitCounts {
		(*hist)[i] += after.commitCounts[i] - before.commitCounts[i]
	}
}

// bucketQuantile estimates a quantile from bucket counts as the upper bound
// of the bucket holding it (the last bound for the overflow bucket).
func bucketQuantile(bounds []float64, counts []int64, q float64) float64 {
	var n int64
	for _, c := range counts {
		n += c
	}
	if n == 0 || len(bounds) == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(n)))
	var cum int64
	for i, c := range counts {
		cum += c
		if cum >= max(target, 1) {
			return bounds[min(i, len(bounds)-1)]
		}
	}
	return bounds[len(bounds)-1]
}

// quantile is the linearly interpolated q-quantile of sorted samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func sortedCopy(s []float64) []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// sampleNetWait samples the smoothed ingress queueing delay at every MDS
// host once per virtual millisecond until stop closes.
func sampleNetWait(c *cluster, it *iteration, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	for {
		select {
		case <-stop:
			return
		case <-it.clk.After(time.Millisecond):
		}
		for _, h := range c.mdsHosts {
			it.record(serNetW, c.net.CongestionWait(h))
		}
	}
}

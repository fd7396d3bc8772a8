package main

import (
	"errors"
	"sort"
)

// workloadFunc runs one pass: generate inputs from the seed, set up
// (repeatedly, timed), run the closed-loop window, and queue every output
// for the reference gate.
type workloadFunc func(r *recorder) error

// workloads maps each workload name to the function that runs it. Every one
// is closed loop:
// callers wait for their result before sending the next job. None uses more
// than two concurrent clients or two mining threads.
//
//   - batch-paper stresses core and rwave: the Figure 7 DFS is about 95% of
//     each job, so miner and RWave kernel changes show here and serving
//     changes should not.
//   - serve-mix stresses the service layers — registry, journal and store
//     writes, scheduler, NDJSON stream, result render and cache replay —
//     with uploads and deletes beside the reads so a write-path cost shows.
//   - live-append is the only workload that runs rwave.Repair and
//     core.MineIncremental, and each child version churns the model cache.
//   - dist-lease measures the lease, heartbeat and SubtreeMerger path,
//     including replica fetch and hash verification of fresh datasets.
var workloads = map[string]workloadFunc{
	"batch-paper": batchPaper,
	"serve-mix":   serveMix,
	"live-append": liveAppend,
	"dist-lease":  distLease,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// serviceCounters records the per-layer values every HTTP workload reads
// off /metrics deltas and a stat of the data directory.
func serviceCounters(r *recorder, before, after map[string]float64, jobs int, dir string, storeBefore, totalBefore int64) {
	d := func(name string) float64 { return metricDelta(before, after, name) }
	ratio := func(a, b float64) float64 {
		if a+b == 0 {
			return 0
		}
		return a / (a + b)
	}
	n := float64(max(jobs, 1))
	r.counters["service.result_cache_hit_frac"] = ratio(d("regcluster_cache_hits_total"), d("regcluster_cache_misses_total"))
	r.counters["service.model_cache_hit_frac"] = ratio(d("regserver_model_cache_hits_total"), d("regserver_model_cache_misses_total"))
	r.counters["service.model_cache_evictions"] = d("regserver_model_cache_evictions_total")
	r.counters["service.checkpoints_per_job"] = d("regserver_checkpoints_total") / n
	r.counters["service.retries"] = d("regserver_job_retries_total")
	r.counters["service.rejected"] = d("regserver_jobs_rejected_total")
	if dir != "" {
		store, total := storeBytes(dir)
		r.counters["service.store_bytes_per_job"] = float64(store-storeBefore) / n
		r.counters["service.journal_bytes_per_job"] = float64((total-store)-(totalBefore-storeBefore)) / n
	}
}

// storeBytes returns the bytes of persisted datasets and results, and of
// everything in the data directory (the rest is the job journal).
func storeBytes(dir string) (store, total int64) {
	return dirSize(dir, "/datasets/") + dirSize(dir, "/results/"), dirSize(dir, "")
}

// isHTTPError reports whether err is a response with an unexpected status.
func isHTTPError(err error) bool {
	var he *httpError
	return errors.As(err, &he)
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names one reported metric. The end-to-end and per-layer tables
// below are the single source of the names BENCHMARK.json lists; the
// package test holds the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run. failed_frac is printed with them but is not part of the
// JSON result, whose attempted/failed fields carry it exactly.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"jobs_per_s", "1/s", "higher"},
	{"job_p50_s", "s", "lower"},
	{"job_tail_s", "s", "lower"},
	{"ttfc_p50_s", "s", "lower"},
	{"ingest_p50_s", "s", "lower"},
	{"cpu_s_per_job", "s", "lower"},
	{"alloc_mb_per_job", "MB", "lower"},
	{"heap_live_mb", "MB", "lower"},
}

// perLayer are the per-layer metrics of a traced run. Timings are per-job
// self times (see selfTimes), median over the jobs in which the span ran;
// counts are per-job means unless the name says otherwise. layers.json
// records which end-to-end metric each should move, on which workload.
var perLayer = []metricDef{
	{"matrix.parse_s", "s", "lower"},
	{"matrix.hash_s", "s", "lower"},
	{"matrix.append_s", "s", "lower"},
	{"matrix.mb_per_s", "MB/s", "higher"},
	{"rwave.build_s", "s", "lower"},
	{"rwave.repair_s", "s", "lower"},
	{"rwave.repaired_frac", "ratio", "higher"},
	{"core.mine_s", "s", "lower"},
	{"core.subtree_s", "s", "lower"},
	{"core.subtree_max_s", "s", "lower"},
	{"core.reruns", "count", "lower"},
	{"core.ttfc_s", "s", "lower"},
	{"core.incremental_s", "s", "lower"},
	{"core.subtrees_reused_frac", "ratio", "higher"},
	{"core.nodes", "count", "lower"},
	{"core.candidates", "count", "lower"},
	{"core.clusters_per_node", "ratio", "higher"},
	{"core.pruned_ming", "count", "higher"},
	{"core.pruned_majority", "count", "higher"},
	{"core.pruned_coherence", "count", "higher"},
	{"core.duplicates", "count", "lower"},
	{"core.dropped_by_length", "count", "higher"},
	{"report.render_s", "s", "lower"},
	{"report.bytes", "B", "lower"},
	{"service.upload_s", "s", "lower"},
	{"service.append_s", "s", "lower"},
	{"service.delete_s", "s", "lower"},
	{"service.journal_bytes_per_job", "B", "lower"},
	{"service.store_bytes_per_job", "B", "lower"},
	{"service.submit_s", "s", "lower"},
	{"service.queue_s", "s", "lower"},
	{"service.attempt_s", "s", "lower"},
	{"service.stream_s", "s", "lower"},
	{"service.result_s", "s", "lower"},
	{"service.diff_s", "s", "lower"},
	{"service.diff_early", "count", "lower"},
	{"service.result_cache_hit_frac", "ratio", "higher"},
	{"service.model_cache_hit_frac", "ratio", "higher"},
	{"service.model_cache_evictions", "count", "lower"},
	{"service.incremental_frac", "ratio", "higher"},
	{"service.fallbacks", "count", "lower"},
	{"service.checkpoints_per_job", "count", "lower"},
	{"service.retries", "count", "lower"},
	{"service.rejected", "count", "lower"},
	{"service.http_errors", "count", "lower"},
	{"dist.lease_s", "s", "lower"},
	{"dist.leases_per_job", "count", "lower"},
	{"dist.reassigned", "count", "lower"},
	{"dist.completed_frac", "ratio", "higher"},
	{"dist.worker_share_min", "ratio", "higher"},
	{"dist.replicated", "count", "lower"},
	{"runtime.gc_per_job", "count", "lower"},
}

// median returns the middle value (mean of the two middle values for an even
// count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest whole percentile q (at most 99) whose
// nearest-rank value still has at least ten samples above it, together with
// that value. With fewer than eleven samples no such percentile exists and
// tail reports the maximum with q = 100.
func tail(xs []float64) (q int, v float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for q = 99; q >= 1; q-- {
		idx := int(math.Ceil(float64(q)/100*float64(n))) - 1
		if idx < 0 {
			idx = 0
		}
		if n-1-idx >= 10 {
			return q, s[idx]
		}
	}
	return 100, s[n-1]
}

// metricValue is one entry of the JSON result.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeResult prints the one-line JSON result the benchmark contract asks
// for; it must be the last line of standard output.
func writeResult(w io.Writer, correct bool, attempted, failed int, metrics map[string]float64) error {
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{correct, attempted, failed, map[string]metricValue{}}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if v, ok := metrics[d.name]; ok {
				out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
			}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

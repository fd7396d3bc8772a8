package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"regcluster/internal/core"
	"regcluster/internal/obs"
)

// runConfig is one invocation's command line.
type runConfig struct {
	workload string
	seed     int64
	window   time.Duration
	work     string
	opt      options
}

// setupRepeats is how many times each pass repeats its set-up; setup_s is
// the median.
const setupRepeats = 7

// jobRecord is one completed job as its client saw it.
type jobRecord struct {
	kind    string
	latency float64 // submit (or start of parse) to full result received, s
	ttfc    float64 // submit to first cluster, s; negative when none arrived
	cached  bool    // served from the result cache: no mining happened
	stats   core.Stats
	tree    *obs.Node          // traced passes only
	layer   map[string]float64 // per-job per-layer values the workload measured directly
}

// check is one mechanism check against the seeded schedule.
type check struct {
	name   string
	ok     bool
	detail string
}

// recorder collects one pass of one workload. Clients of concurrent
// workloads record through its mutex.
type recorder struct {
	cfg    runConfig
	traced bool
	refs   *refGate

	mu        sync.Mutex
	setups    []float64
	jobs      []jobRecord
	ingest    []float64
	ops       map[string][]float64 // per-operation per-layer values (upload, append, delete, probes)
	counters  map[string]float64   // run-level per-layer values
	attempted int
	failed    int
	failures  []string
	checks    []check
	extraRoot []*obs.Node // traced operations outside any job (uploads, deletes)

	start, end time.Time
	cpu0, cpu1 float64
	ms0, ms1   runtime.MemStats
	heapLive   float64
}

func newRecorder(cfg runConfig, traced bool) *recorder {
	return &recorder{
		cfg:      cfg,
		traced:   traced,
		refs:     newRefGate(cfg.opt.corruptReference),
		ops:      make(map[string][]float64),
		counters: make(map[string]float64),
	}
}

// setup times fn, which must build a fresh environment each call; set-up
// runs setupRepeats times and the last environment is kept for the measured
// window (tear-down of the earlier ones is not timed).
func setup[E any](r *recorder, fn func() (E, error), teardown func(E)) (E, error) {
	var env E
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			teardown(env)
		}
		t0 := time.Now()
		e, err := fn()
		if err != nil {
			return env, fmt.Errorf("set-up: %w", err)
		}
		r.setups = append(r.setups, time.Since(t0).Seconds())
		env = e
	}
	return env, nil
}

// beginWindow snapshots process CPU and allocation counters and returns the
// deadline after which clients stop starting new jobs.
func (r *recorder) beginWindow() time.Time {
	runtime.GC()
	runtime.ReadMemStats(&r.ms0)
	r.cpu0 = cpuSeconds()
	r.start = time.Now()
	return r.start.Add(r.cfg.window)
}

// endWindow closes the measured phase once every client has returned.
func (r *recorder) endWindow() {
	r.end = time.Now()
	r.cpu1 = cpuSeconds()
	runtime.ReadMemStats(&r.ms1)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.heapLive = float64(ms.HeapAlloc) / 1e6
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func (r *recorder) addJob(j jobRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.jobs = append(r.jobs, j)
	r.attempted++
}

func (r *recorder) addIngest(sec float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ingest = append(r.ingest, sec)
}

// op records a successful non-job operation (an upload, append, diff or
// delete) with its per-layer value.
func (r *recorder) op(metric string, sec float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.ops[metric] = append(r.ops[metric], sec)
}

// value records a per-layer sample that is not an operation of its own.
func (r *recorder) value(metric string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops[metric] = append(r.ops[metric], v)
}

// fail counts a failed operation or a mismatched output.
func (r *recorder) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *recorder) check(name string, ok bool, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checks = append(r.checks, check{name, ok, fmt.Sprintf(format, args...)})
}

func (r *recorder) traceOp(n *obs.Node) {
	if n == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.extraRoot = append(r.extraRoot, n)
}

// finish runs the reference gate, outside the measured window and outside
// set-up.
func (r *recorder) finish() {
	for _, msg := range r.refs.verify() {
		r.mismatch(msg)
	}
}

// mismatch turns an already-counted operation into a failed one.
func (r *recorder) mismatch(msg string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, msg)
	}
}

func (r *recorder) latencies() []float64 {
	out := make([]float64, len(r.jobs))
	for i, j := range r.jobs {
		out[i] = j.latency
	}
	return out
}

func (r *recorder) endToEnd() map[string]float64 {
	n := float64(max(len(r.jobs), 1))
	var ttfc []float64
	for _, j := range r.jobs {
		if j.ttfc >= 0 {
			ttfc = append(ttfc, j.ttfc)
		}
	}
	_, tailV := tail(r.latencies())
	return map[string]float64{
		"setup_s":          median(r.setups),
		"jobs_per_s":       float64(len(r.jobs)) / r.end.Sub(r.start).Seconds(),
		"job_p50_s":        median(r.latencies()),
		"job_tail_s":       tailV,
		"ttfc_p50_s":       median(ttfc),
		"ingest_p50_s":     median(r.ingest),
		"cpu_s_per_job":    (r.cpu1 - r.cpu0) / n,
		"alloc_mb_per_job": float64(r.ms1.TotalAlloc-r.ms0.TotalAlloc) / 1e6 / n,
		"heap_live_mb":     r.heapLive,
	}
}

func (r *recorder) failedFrac() float64 {
	if r.attempted == 0 {
		return 1
	}
	return float64(r.failed) / float64(r.attempted)
}

func (r *recorder) printEndToEnd(w io.Writer) {
	mode := "untraced"
	if r.traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "end-to-end (%s pass, %d set-ups, %d jobs, %d operations):\n", mode, len(r.setups), len(r.jobs), r.attempted)
	m := r.endToEnd()
	q, _ := tail(r.latencies())
	for _, d := range endToEnd {
		note := ""
		switch d.name {
		case "job_tail_s":
			note = fmt.Sprintf("  (p%d of %d jobs)", q, len(r.jobs))
		case "ingest_p50_s":
			note = fmt.Sprintf("  (%d samples)", len(r.ingest))
		}
		fmt.Fprintf(w, "  %-18s %12.6f %s%s\n", d.name, m[d.name], d.unit, note)
	}
	fmt.Fprintf(w, "  %-18s %12.6f ratio  (%d of %d operations)\n", "failed_frac", r.failedFrac(), r.failed, r.attempted)
	latency, ttfc := make(map[string][]float64), make(map[string][]float64)
	for _, j := range r.jobs {
		latency[j.kind] = append(latency[j.kind], j.latency)
		if j.ttfc >= 0 {
			ttfc[j.kind] = append(ttfc[j.kind], j.ttfc)
		}
	}
	kinds := make([]string, 0, len(latency))
	for k := range latency {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(w, "  jobs of kind %-14s %4d, latency p50 %.6f s, first cluster p50 %.6f s\n",
			k, len(latency[k]), median(latency[k]), median(ttfc[k]))
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

func (r *recorder) printChecks(w io.Writer) {
	if len(r.checks) == 0 {
		return
	}
	fmt.Fprintln(w, "mechanism checks:")
	for _, c := range r.checks {
		status := "PASS"
		if !c.ok {
			status = "MISS"
		}
		fmt.Fprintf(w, "  %s %s: %s\n", status, c.name, c.detail)
	}
}

// jobLayerValues derives one traced job's per-layer samples from its span
// tree and the values its workload measured directly.
func jobLayerValues(j jobRecord) map[string]float64 {
	out := make(map[string]float64)
	for k, v := range j.layer {
		out[k] = v
	}
	if j.tree == nil {
		return out
	}
	st := selfTimes(j.tree)
	layer := make(map[string]float64)
	for name, v := range st {
		layer[layerOf(name)] += v
	}
	set := func(metric string, v float64) {
		if v > 0 {
			out[metric] = v
		}
	}
	set("matrix.parse_s", st["matrix.parse"])
	set("matrix.hash_s", st["matrix.hash"])
	set("rwave.build_s", st["rwave.build"]+st["rwave.chunk"])
	set("rwave.repair_s", st["rwave.repair"])
	set("core.mine_s", layer["core"])
	set("core.subtree_s", st["subtree"])
	set("core.incremental_s", st["incremental.mine"])
	set("report.render_s", st["report.render"])
	set("service.submit_s", st["http.submit"])
	set("service.queue_s", st["queue"])
	set("service.attempt_s", st["attempt"])
	set("service.stream_s", st["http.stream"]+st["stream"])
	set("service.result_s", st["http.result"])
	set("dist.lease_s", st["lease"])
	if _, longest := spanStats(j.tree, "subtree"); longest > 0 {
		out["core.subtree_max_s"] = longest
	}
	return out
}

// perLayer aggregates a traced pass into the per-layer metrics: per-job
// timings are medians over the jobs in which they occur, Stats counters are
// means over the jobs that mined, and run-level counters come from the
// workload. A metric a workload never exercises reads 0.
func (r *recorder) perLayer() map[string]float64 {
	samples := make(map[string][]float64)
	for k, v := range r.ops {
		samples[k] = append(samples[k], v...)
	}
	var mined float64
	var stats core.Stats
	var reruns int
	for _, j := range r.jobs {
		for k, v := range jobLayerValues(j) {
			samples[k] = append(samples[k], v)
		}
		if j.tree != nil {
			n, _ := spanStats(j.tree, "rerun")
			reruns += n
		}
		if !j.cached {
			mined++
			stats.Add(j.stats)
		}
	}
	out := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		out[d.name] = median(samples[d.name])
	}
	if mined > 0 {
		out["core.nodes"] = float64(stats.Nodes) / mined
		out["core.candidates"] = float64(stats.CandidatesExamined) / mined
		out["core.pruned_ming"] = float64(stats.PrunedMinG) / mined
		out["core.pruned_majority"] = float64(stats.PrunedMajority) / mined
		out["core.pruned_coherence"] = float64(stats.PrunedCoherence) / mined
		out["core.duplicates"] = float64(stats.Duplicates) / mined
		out["core.dropped_by_length"] = float64(stats.MembersDroppedByLength) / mined
		out["core.reruns"] = float64(reruns) / mined
	}
	if stats.Nodes > 0 {
		out["core.clusters_per_node"] = float64(stats.Clusters) / float64(stats.Nodes)
	}
	if n := len(r.jobs); n > 0 {
		out["runtime.gc_per_job"] = float64(r.ms1.NumGC-r.ms0.NumGC) / float64(n)
	}
	for k, v := range r.counters {
		out[k] = v
	}
	return out
}

// printSelfTimes prints, per span name and per layer, the mean self time per
// job; the layer rows plus the unattributed remainder sum to the mean job
// wall time.
func (r *recorder) printSelfTimes(w io.Writer) {
	spans := make(map[string]float64)
	var wall float64
	var traced int
	for _, j := range r.jobs {
		if j.tree == nil {
			continue
		}
		traced++
		wall += float64(j.tree.DurUS) / 1e6
		for name, v := range selfTimes(j.tree) {
			spans[name] += v
		}
	}
	if traced == 0 {
		return
	}
	names := make([]string, 0, len(spans))
	for name := range spans {
		names = append(names, name)
	}
	sort.Slice(names, func(a, b int) bool { return spans[names[a]] > spans[names[b]] })
	layers := make(map[string]float64)
	fmt.Fprintf(w, "self time per job (%s, mean over %d traced jobs):\n", r.cfg.workload, traced)
	fmt.Fprintf(w, "  %-22s %-12s %12s %7s\n", "span", "layer", "seconds", "share")
	for _, name := range names {
		v := spans[name] / float64(traced)
		layers[layerOf(name)] += v
		fmt.Fprintf(w, "  %-22s %-12s %12.6f %6.1f%%\n", name, layerOf(name), v, 100*v/(wall/float64(traced)))
	}
	meanWall := wall / float64(traced)
	fmt.Fprintf(w, "self time per layer:\n")
	var sum float64
	for _, l := range []string{"matrix", "rwave", "core", "report", "service", "dist", "unattributed"} {
		sum += layers[l]
		fmt.Fprintf(w, "  %-22s %12.6f s %6.1f%%\n", l, layers[l], 100*layers[l]/meanWall)
	}
	fmt.Fprintf(w, "  %-22s %12.6f s (mean job wall %.6f s)\n", "sum", sum, meanWall)
}

// printOverhead prints the traced minus the untraced end-to-end numbers.
func printOverhead(w io.Writer, plain, traced *recorder) {
	a, b := plain.endToEnd(), traced.endToEnd()
	fmt.Fprintln(w, "tracing overhead (traced minus untraced):")
	for _, d := range endToEnd {
		rel := ""
		if a[d.name] != 0 {
			rel = fmt.Sprintf(" (%+.1f%%)", 100*(b[d.name]-a[d.name])/a[d.name])
		}
		fmt.Fprintf(w, "  %-18s %+12.6f %s%s\n", d.name, b[d.name]-a[d.name], d.unit, rel)
	}
}

// dumpSpans writes every traced job tree (and traced operation outside a
// job) as JSON under the work directory.
func (r *recorder) dumpSpans() (string, error) {
	roots := append([]*obs.Node(nil), r.extraRoot...)
	for _, j := range r.jobs {
		if j.tree != nil {
			roots = append(roots, j.tree)
		}
	}
	path := filepath.Join(r.cfg.work, fmt.Sprintf("spans-%s-seed%d.json", r.cfg.workload, r.cfg.seed))
	b, err := json.Marshal(roots)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// Command perfbench is the repository's layered end-to-end benchmark. One
// invocation runs one seeded, closed-loop workload against the reg-cluster
// layers (matrix, rwave, core, report, service, dist and the Go runtime) for
// a fixed time, checks every job's output byte for byte against a sequential
// reference mine, and prints the end-to-end metrics — or, with --trace 1,
// the per-layer metrics of a traced run — as one JSON object on the last
// line of standard output:
//
//	bash perfbench/run.sh --workload batch-paper --seed 1 --seconds 10 --trace 0
//
// Workloads (see workloads.go for why each exists):
//
//	batch-paper  in-process library path: parse → hash → RWave build → streamed mine → render
//	serve-mix    two HTTP clients against a durable server: cache hits, γ-sharing variants, cold jobs, uploads
//	live-append  append delta → incremental re-mine → stream → diff → delete, on a durable server
//	dist-lease   coordinator-mode server with two in-process lease workers
//
// The exit code is 0 when every operation succeeded and matched its
// reference, 1 when any failed or mismatched, and 2 on a usage or set-up
// error (no result line is printed then).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, options{}))
}

// options are knobs only tests set: the tiny input scale and a deliberately
// corrupted reference that proves the output gate is live.
type options struct {
	tiny             bool
	corruptReference bool
}

func run(args []string, stdout, stderr io.Writer, opt options) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name: "+fmt.Sprint(workloadNames()))
	seed := fs.Int64("seed", 1, "seed from which every input and schedule is generated")
	seconds := fs.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 runs an untraced pass, then a traced pass, and reports per-layer metrics")
	work := fs.String("work", filepath.Join(".bench_build", "perfbench"), "directory for data dirs and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload %v, --seconds > 0, --trace 0|1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	cfg := runConfig{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		work:     *work,
		opt:      opt,
	}
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%d\n", *workload, *seed, *seconds, *trace)

	plain, err := execute(wl, cfg, false)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	plain.printEndToEnd(stdout)
	plain.printChecks(stdout)
	final, metrics := plain, plain.endToEnd()
	if *trace == 1 {
		traced, err := execute(wl, cfg, true)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 2
		}
		traced.printEndToEnd(stdout)
		traced.printChecks(stdout)
		printOverhead(stdout, plain, traced)
		traced.printSelfTimes(stdout)
		if path, err := traced.dumpSpans(); err != nil {
			fmt.Fprintf(stderr, "perfbench: dump spans: %v\n", err)
		} else {
			fmt.Fprintf(stdout, "spans written to %s\n", path)
		}
		final, metrics = traced, traced.perLayer()
		final.attempted += plain.attempted
		final.failed += plain.failed
	}
	if final.attempted == 0 {
		final.fail("the window ended before any operation was attempted")
	}
	if err := writeResult(stdout, final.failed == 0, final.attempted, final.failed, metrics); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if final.failed > 0 {
		return 1
	}
	return 0
}

// execute runs one pass of a workload: inputs, repeated set-up, the measured
// window, then the reference gate.
func execute(wl workloadFunc, cfg runConfig, traced bool) (*recorder, error) {
	r := newRecorder(cfg, traced)
	if err := wl(r); err != nil {
		return nil, err
	}
	r.finish()
	return r, nil
}

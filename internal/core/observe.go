package core

import (
	"fmt"
	"sync/atomic"

	"regcluster/internal/obs"
)

// Observer exposes live progress counters of an in-flight mining run. All
// methods are safe for concurrent use; a server can poll an Observer from a
// status endpoint while the miners run. The counters are monotone and
// *approximate* accounting of work in flight: on a truncated run the workers
// may briefly overshoot the exact sequential totals before cancellation
// reaches them, so the authoritative numbers remain the Stats returned when
// the run finishes. An uncapped, uninterrupted run ends with Nodes/Clusters
// equal to the final Stats.
type Observer struct {
	nodes    atomic.Int64
	clusters atomic.Int64
	span     atomic.Pointer[obs.Span]
}

// Nodes returns the number of search-tree nodes visited so far.
func (o *Observer) Nodes() int64 { return o.nodes.Load() }

// Clusters returns the number of clusters emitted by workers so far.
func (o *Observer) Clusters() int64 { return o.clusters.Load() }

// SetSpan attaches a parent tracing span: the next mining run started with
// this Observer records its phase spans (RWave index construction with
// per-chunk children, per-subtree enumeration, reconciliation reruns) and
// counters (checkpoints, budget trips) as children of sp. Store nil to
// detach. With no span attached — the default — the instrumentation degrades
// to nil no-ops that allocate nothing, preserving the zero-allocation hot
// path. Call between runs, not mid-run: miners read the span once at start.
func (o *Observer) SetSpan(sp *obs.Span) { o.span.Store(sp) }

// TraceSpan returns the currently attached span (nil when tracing is off);
// nil-safe on a nil Observer.
func (o *Observer) TraceSpan() *obs.Span { return o.traceSpan() }

// traceSpan returns the attached span; nil-safe on a nil Observer.
func (o *Observer) traceSpan() *obs.Span {
	if o == nil {
		return nil
	}
	return o.span.Load()
}

// ValidateWorkers reports whether a caller-supplied worker count is usable.
// Zero and negative counts are valid and select GOMAXPROCS (the documented
// Mine* convention) — except that servers accepting untrusted requests
// usually want a ceiling: a positive max rejects counts above it. Use it
// wherever a worker count crosses an API boundary (CLI flags, service
// submissions) so the error message is uniform.
func ValidateWorkers(workers, max int) error {
	if max > 0 && workers > max {
		return fmt.Errorf("core: %d workers exceeds the limit of %d", workers, max)
	}
	return nil
}

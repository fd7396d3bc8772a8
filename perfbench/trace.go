package main

import (
	"sort"
	"strings"
	"time"

	"regcluster/internal/obs"
)

// rootSpan is the benchmark's own span around one whole job, from submit (or
// the start of parsing, in process) to the full result received. Time in it
// that no deeper span covers is the unattributed remainder.
const rootSpan = "bench.job"

// layerOf maps a span name to the module it measures. Benchmark spans carry
// their layer as a name prefix (matrix.parse, core.mine, report.render, and
// http.* for service calls made over HTTP); program spans keep the names the
// program gives them (subtree, rerun, queue, attempt, stream, lease, ...).
func layerOf(name string) string {
	switch {
	case name == rootSpan:
		return "unattributed"
	case strings.HasPrefix(name, "matrix."):
		return "matrix"
	case strings.HasPrefix(name, "rwave."):
		return "rwave"
	case strings.HasPrefix(name, "core."), name == "subtree", name == "rerun", name == "incremental.mine":
		return "core"
	case strings.HasPrefix(name, "report."):
		return "report"
	case name == "lease":
		return "dist"
	default: // http.* client calls and the server's job/queue/attempt/stream spans
		return "service"
	}
}

// selfTimes attributes every instant of root's interval to the deepest spans
// open at that instant, split evenly when several are (two workers mining two
// subtrees at once each get half), and returns seconds per span name. The
// values therefore sum to the root's duration: layer self times plus the
// unattributed remainder add up to the job's wall time even when spans
// overlap. Children are clipped to the root's interval.
func selfTimes(root *obs.Node) map[string]float64 {
	type interval struct {
		s, e  int64
		depth int
		name  string
	}
	lo, hi := root.StartUS, root.StartUS+root.DurUS
	var ivs []interval
	var walk func(n *obs.Node, depth int)
	walk = func(n *obs.Node, depth int) {
		s, e := max(n.StartUS, lo), min(n.StartUS+n.DurUS, hi)
		if e > s {
			ivs = append(ivs, interval{s, e, depth, n.Name})
		}
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	pts := make([]int64, 0, 2*len(ivs))
	for _, v := range ivs {
		pts = append(pts, v.s, v.e)
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
	out := make(map[string]float64)
	var deepest []string
	for i := 0; i+1 < len(pts); i++ {
		a, b := pts[i], pts[i+1]
		if b == a {
			continue
		}
		best := -1
		deepest = deepest[:0]
		for _, v := range ivs {
			if v.s <= a && v.e >= b {
				if v.depth > best {
					best, deepest = v.depth, deepest[:0]
				}
				if v.depth == best {
					deepest = append(deepest, v.name)
				}
			}
		}
		dt := float64(b-a) / 1e6 / float64(len(deepest))
		for _, n := range deepest {
			out[n] += dt
		}
	}
	return out
}

// spanStats returns how many spans named name the tree holds and the longest
// one's duration in seconds.
func spanStats(n *obs.Node, name string) (count int, longest float64) {
	if n.Name == name {
		count, longest = 1, float64(n.DurUS)/1e6
	}
	for _, c := range n.Children {
		k, l := spanStats(c, name)
		count += k
		longest = max(longest, l)
	}
	return count, longest
}

// shifted returns a copy of n with every start moved by d microseconds.
func shifted(n *obs.Node, d int64) *obs.Node {
	c := *n
	c.StartUS += d
	c.Children = make([]*obs.Node, len(n.Children))
	for i, ch := range n.Children {
		c.Children[i] = shifted(ch, d)
	}
	return &c
}

// clientTrace is the benchmark's span tree for one job. base is the moment
// its tracer was born, against which every node's StartUS counts.
type clientTrace struct {
	tr   *obs.Tracer
	base time.Time
	root *obs.Span
}

// startJob opens a job's root span; nil (a no-op) when untraced.
func startJob(traced bool) *clientTrace {
	if !traced {
		return nil
	}
	base := time.Now()
	tr := obs.New()
	return &clientTrace{tr: tr, base: base, root: tr.Start(rootSpan)}
}

// span opens a child of the job root; a nil *obs.Span when untraced.
func (ct *clientTrace) span(name string) *obs.Span {
	if ct == nil {
		return nil
	}
	return ct.root.Start(name)
}

// end closes the job's root span; call it when the job's latency is taken,
// so client work after that (parsing, fetching the trace) stays outside.
func (ct *clientTrace) end() {
	if ct != nil {
		ct.root.End()
	}
}

// finish ends the root (if end has not) and returns the job's tree with the
// server's trace (if any) grafted under the root. serverBase is the wall-clock birth of the
// server's per-job tracer, which the job's created_at timestamp records.
func (ct *clientTrace) finish(server []*obs.Node, serverBase time.Time) *obs.Node {
	if ct == nil {
		return nil
	}
	ct.root.End()
	nodes := ct.tr.Tree()
	if len(nodes) == 0 {
		return nil
	}
	root := nodes[0]
	d := serverBase.Sub(ct.base).Microseconds()
	for _, n := range server {
		root.Children = append(root.Children, shifted(n, d))
	}
	return root
}

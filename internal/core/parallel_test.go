package core

import (
	"context"
	"reflect"
	"testing"

	"regcluster/internal/matrix"
	"regcluster/internal/rwave"
)

// equivalenceWorkers are the pool sizes the ISSUE acceptance criteria pin
// down for the cap-equivalence property.
var equivalenceWorkers = []int{1, 2, 8}

// assertSameRun asserts that a parallel run reproduced the sequential
// clusters exactly — same sequence, same order — and the same Stats.
func assertSameRun(t *testing.T, label string, seq *Result, gotClusters []*Bicluster, gotStats Stats) {
	t.Helper()
	if len(gotClusters) != len(seq.Clusters) {
		t.Fatalf("%s: %d clusters, sequential has %d", label, len(gotClusters), len(seq.Clusters))
	}
	for i := range gotClusters {
		if gotClusters[i].Key() != seq.Clusters[i].Key() {
			t.Fatalf("%s: cluster %d diverged:\n  got  %s\n  want %s",
				label, i, gotClusters[i].Key(), seq.Clusters[i].Key())
		}
	}
	if !reflect.DeepEqual(gotStats, seq.Stats) {
		t.Errorf("%s: stats diverged:\n  got  %+v\n  want %+v", label, gotStats, seq.Stats)
	}
}

func collectParallelFunc(t *testing.T, m *matrix.Matrix, p Params, workers int) ([]*Bicluster, Stats) {
	t.Helper()
	var got []*Bicluster
	stats, err := runStats(Run(context.Background(), m, p, Options{Workers: workers, Visit: func(b *Bicluster) bool {
		got = append(got, b)
		return true
	}}))
	if err != nil {
		t.Fatal(err)
	}
	return got, stats
}

// TestMinersEquivalentUntruncated pins the core contract on untruncated
// runs: Mine and Run — sequential or parallel, collecting or streaming —
// produce identical cluster sequences and identical Stats.
func TestMinersEquivalentUntruncated(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		m := randomMatrix(60, 10, seed)
		p := Params{MinG: 3, MinC: 3, Gamma: 0.05, Epsilon: 0.4}
		seq, err := Mine(m, p)
		if err != nil {
			t.Fatal(err)
		}
		var streamed []*Bicluster
		fStats, err := runStats(Run(context.Background(), m, p, Options{Workers: 1, Visit: func(b *Bicluster) bool {
			streamed = append(streamed, b)
			return true
		}}))
		if err != nil {
			t.Fatal(err)
		}
		assertSameRun(t, "sequential visitor", seq, streamed, fStats)
		for _, workers := range equivalenceWorkers {
			par, err := Run(context.Background(), m, p, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			assertSameRun(t, "parallel", seq, par.Clusters, par.Stats)
			got, stats := collectParallelFunc(t, m, p, workers)
			assertSameRun(t, "parallel visitor", seq, got, stats)
		}
	}
}

// TestParallelTruncationMaxClusters is the headline bugfix property: with a
// global MaxClusters cap, a parallel Run must return exactly the truncated
// sequential prefix — clusters AND stats — at any worker count.
func TestParallelTruncationMaxClusters(t *testing.T) {
	m := randomMatrix(60, 10, 1)
	base := Params{MinG: 3, MinC: 3, Gamma: 0.05, Epsilon: 0.4}
	full, err := Mine(m, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Clusters) < 5 {
		t.Fatalf("workload too small: %d clusters", len(full.Clusters))
	}
	for _, cap := range []int{1, 2, len(full.Clusters) / 2, len(full.Clusters), len(full.Clusters) + 10} {
		p := base
		p.MaxClusters = cap
		seq, err := Mine(m, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range equivalenceWorkers {
			par, err := Run(context.Background(), m, p, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			assertSameRun(t, "parallel", seq, par.Clusters, par.Stats)
			got, stats := collectParallelFunc(t, m, p, workers)
			assertSameRun(t, "parallel visitor", seq, got, stats)
		}
	}
}

// TestParallelTruncationMaxNodes: same property for the node budget, which
// can truncate between clusters and therefore exercises the node-ordinal
// gate of the emitter.
func TestParallelTruncationMaxNodes(t *testing.T) {
	m := randomMatrix(60, 10, 2)
	base := Params{MinG: 3, MinC: 3, Gamma: 0.05, Epsilon: 0.4}
	full, err := Mine(m, base)
	if err != nil {
		t.Fatal(err)
	}
	caps := []int{1, 2, full.Stats.Nodes / 10, full.Stats.Nodes / 3,
		full.Stats.Nodes - 1, full.Stats.Nodes, full.Stats.Nodes + 5}
	for _, cap := range caps {
		if cap <= 0 {
			continue
		}
		p := base
		p.MaxNodes = cap
		seq, err := Mine(m, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range equivalenceWorkers {
			par, err := Run(context.Background(), m, p, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			assertSameRun(t, "parallel", seq, par.Clusters, par.Stats)
			got, stats := collectParallelFunc(t, m, p, workers)
			assertSameRun(t, "parallel visitor", seq, got, stats)
		}
	}
}

// TestParallelTruncationBothCaps sets both budgets at once; whichever fires
// first sequentially must fire identically in parallel.
func TestParallelTruncationBothCaps(t *testing.T) {
	m := randomMatrix(60, 10, 3)
	base := Params{MinG: 3, MinC: 3, Gamma: 0.05, Epsilon: 0.4}
	full, err := Mine(m, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ clusters, nodes int }{
		{2, full.Stats.Nodes / 2},
		{len(full.Clusters), 3},
		{3, 50},
	} {
		p := base
		p.MaxClusters, p.MaxNodes = tc.clusters, tc.nodes
		seq, err := Mine(m, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range equivalenceWorkers {
			par, err := Run(context.Background(), m, p, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			assertSameRun(t, "parallel", seq, par.Clusters, par.Stats)
		}
	}
}

// TestParallelFuncVisitorEarlyStop: stopping the visitor after k clusters
// must leave exactly the same delivered prefix and the same Stats as the
// equivalent sequential early stop, at any worker count.
func TestParallelFuncVisitorEarlyStop(t *testing.T) {
	m := randomMatrix(60, 10, 1)
	p := Params{MinG: 3, MinC: 3, Gamma: 0.05, Epsilon: 0.4}
	full, err := Mine(m, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Clusters) < 4 {
		t.Fatalf("workload too small: %d clusters", len(full.Clusters))
	}
	for _, stopAfter := range []int{1, 3, len(full.Clusters) - 1} {
		var seqGot []*Bicluster
		seqStats, err := runStats(Run(context.Background(), m, p, Options{Workers: 1, Visit: func(b *Bicluster) bool {
			seqGot = append(seqGot, b)
			return len(seqGot) < stopAfter
		}}))
		if err != nil {
			t.Fatal(err)
		}
		if !seqStats.Truncated {
			t.Fatalf("stopAfter=%d: sequential early stop not marked Truncated", stopAfter)
		}
		seq := &Result{Clusters: seqGot, Stats: seqStats}
		for _, workers := range equivalenceWorkers {
			var got []*Bicluster
			stats, err := runStats(Run(context.Background(), m, p, Options{Workers: workers, Visit: func(b *Bicluster) bool {
				got = append(got, b)
				return len(got) < stopAfter
			}}))
			if err != nil {
				t.Fatal(err)
			}
			assertSameRun(t, "parallel visitor early stop", seq, got, stats)
		}
	}
}

// TestParallelFuncStreamsInOrder verifies the reordering-buffer contract on
// a matrix large enough for real interleaving: delivery order equals Mine's
// enumeration order even with many workers.
func TestParallelFuncStreamsInOrder(t *testing.T) {
	m := randomMatrix(120, 12, 7)
	p := Params{MinG: 3, MinC: 3, Gamma: 0.05, Epsilon: 0.3}
	seq, err := Mine(m, p)
	if err != nil {
		t.Fatal(err)
	}
	got, stats := collectParallelFunc(t, m, p, 8)
	assertSameRun(t, "parallel visitor order", seq, got, stats)
}

func TestMineContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := randomMatrix(40, 9, 5)
	p := Params{MinG: 3, MinC: 3, Gamma: 0.05, Epsilon: 0.4}
	if _, err := Run(ctx, m, p, Options{Workers: 1}); err != context.Canceled {
		t.Errorf("sequential Run on cancelled ctx: err = %v, want context.Canceled", err)
	}
	for _, workers := range equivalenceWorkers {
		if _, err := Run(ctx, m, p, Options{Workers: workers}); err != context.Canceled {
			t.Errorf("Run(workers=%d) on cancelled ctx: err = %v, want context.Canceled",
				workers, err)
		}
	}
}

func TestMineContextBackground(t *testing.T) {
	m := randomMatrix(40, 9, 5)
	p := Params{MinG: 3, MinC: 3, Gamma: 0.05, Epsilon: 0.4}
	seq, err := Mine(m, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), m, p, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	assertSameRun(t, "sequential with ctx", seq, res.Clusters, res.Stats)
	par, err := Run(context.Background(), m, p, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	assertSameRun(t, "parallel with ctx", seq, par.Clusters, par.Stats)
}

// TestSubtreeOrderLargestFirst checks the dispatch heuristic is a
// permutation sorted by decreasing initial-member count.
func TestSubtreeOrderLargestFirst(t *testing.T) {
	m := randomMatrix(50, 8, 11)
	p := Params{MinG: 3, MinC: 3, Gamma: 0.05, Epsilon: 0.4}
	models, err := prepare(m, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	order := subtreeOrder(m, p, rwave.Kernels(models))
	if len(order) != m.Cols() {
		t.Fatalf("order has %d entries for %d conditions", len(order), m.Cols())
	}
	seen := make(map[int]bool)
	est := func(c int) int {
		n := 0
		for g := 0; g < m.Rows(); g++ {
			if models[g].MaxUpChainFrom(c) >= p.MinC {
				n++
			}
			if models[g].MaxDownChainFrom(c) >= p.MinC {
				n++
			}
		}
		return n
	}
	for i, c := range order {
		if seen[c] {
			t.Fatalf("condition %d dispatched twice", c)
		}
		seen[c] = true
		if i > 0 && est(order[i-1]) < est(c) {
			t.Errorf("dispatch not largest-first at %d: est(%d)=%d < est(%d)=%d",
				i, order[i-1], est(order[i-1]), c, est(c))
		}
	}
}

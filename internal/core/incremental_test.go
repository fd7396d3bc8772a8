package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"regcluster/internal/faultinject"
	"regcluster/internal/matrix"
	"regcluster/internal/rwave"
)

// mineIncremental runs child through Run with a Splice source over the
// parent, returning the Stats and the Splice's report.
func mineIncremental(ctx context.Context, child, parent *matrix.Matrix, p Params, workers int,
	visit Visitor, o *Observer, childModels []*rwave.Model, parentResult *Result) (Stats, IncrementalInfo, error) {
	s := &Splice{Parent: parent, ParentResult: parentResult}
	stats, err := runStats(Run(ctx, child, p, Options{Workers: workers, Visit: visit, Observer: o, Models: childModels, Source: s}))
	return stats, s.Info(), err
}

// grownMatrix draws a random parent and appends k random conditions to it,
// returning both the parent and the grown child.
func grownMatrix(t *testing.T, rng *rand.Rand, rows, oldC, k int) (parent, child *matrix.Matrix) {
	t.Helper()
	parent = diffRandomMatrix(rng, rows, oldC)
	delta := diffRandomMatrix(rng, rows, k)
	for j := 0; j < k; j++ {
		delta.SetColName(j, fmt.Sprintf("new%d", j))
	}
	child, err := matrix.AppendConditions(parent, delta)
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	return parent, child
}

// incrSchemes returns one Params per threshold scheme — relative, absolute
// and custom per-gene — all over the small-integer value grid the random
// matrices use.
func incrSchemes(rng *rand.Rand, rows int) []Params {
	custom := make([]float64, rows)
	for g := range custom {
		custom[g] = float64(rng.Intn(3))
	}
	return []Params{
		{MinG: 2, MinC: 2, Gamma: 0.2, Epsilon: 0.5},
		{MinG: 2, MinC: 2, Gamma: 1, AbsoluteGamma: true, Epsilon: 0.5},
		// A threshold near the top of the value grid keeps regulation sparse,
		// so appends leave most subtrees clean — the splice-heavy regime.
		{MinG: 2, MinC: 2, Gamma: 5, AbsoluteGamma: true, Epsilon: 0.5},
		{MinG: 2, MinC: 2, CustomGammas: custom, Epsilon: 0.25},
	}
}

// sameModels compares two model sets field for field through their exported
// views — the cross-package equivalent of the rwave package's byte-identity
// check.
func sameModels(t *testing.T, label string, got, want []*rwave.Model) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d models, want %d", label, len(got), len(want))
	}
	for g := range got {
		if got[g].Gene() != want[g].Gene() ||
			math.Float64bits(got[g].Gamma()) != math.Float64bits(want[g].Gamma()) {
			t.Fatalf("%s: gene %d scalar mismatch (gene %d/%d γ %v/%v)", label, g,
				got[g].Gene(), want[g].Gene(), got[g].Gamma(), want[g].Gamma())
		}
		if !reflect.DeepEqual(got[g].Kernel(), want[g].Kernel()) {
			t.Fatalf("%s: gene %d kernel mismatch\ngot:  %+v\nwant: %+v", label, g,
				got[g].Kernel(), want[g].Kernel())
		}
		if !reflect.DeepEqual(got[g].Pointers(), want[g].Pointers()) {
			t.Fatalf("%s: gene %d pointer set mismatch", label, g)
		}
	}
}

// TestDifferentialRepairVsBuildModels: across all three threshold schemes and
// random append deltas, RepairModels must produce a model set identical in
// every field to a cold BuildModels of the grown matrix. Runs under -race in
// CI alongside the other differential suites.
func TestDifferentialRepairVsBuildModels(t *testing.T) {
	trials := 30
	if testing.Short() {
		trials = 8
	}
	rng := rand.New(rand.NewSource(20260807))
	fastTotal := 0
	for i := 0; i < trials; i++ {
		rows := 2 + rng.Intn(8)
		parent, child := grownMatrix(t, rng, rows, 2+rng.Intn(6), 1+rng.Intn(4))
		for pi, p := range incrSchemes(rng, rows) {
			label := fmt.Sprintf("trial %d scheme %d", i, pi)
			parentModels, err := BuildModels(parent, p, nil)
			if err != nil {
				t.Fatalf("%s: parent build: %v", label, err)
			}
			repaired, nFast, err := RepairModels(child, p, parentModels, nil)
			if err != nil {
				t.Fatalf("%s: repair: %v", label, err)
			}
			cold, err := BuildModels(child, p, nil)
			if err != nil {
				t.Fatalf("%s: cold build: %v", label, err)
			}
			sameModels(t, label, repaired, cold)
			// Absolute and custom thresholds never drift under an append, so
			// every gene must take the fast path there.
			if pi > 0 && nFast != rows {
				t.Fatalf("%s: %d/%d genes repaired under a drift-free scheme", label, nFast, rows)
			}
			fastTotal += nFast
		}
	}
	if fastTotal == 0 {
		t.Fatal("no gene ever took the repair fast path — the differential is vacuous")
	}
}

// TestDifferentialIncrementalVsCold is the tentpole differential: on random
// append deltas across all threshold schemes, the Splice source's cluster
// stream and Stats must be byte-identical to a cold parallel mine of the
// grown matrix, at 1, 2 and 8 workers. Runs under -race in CI.
func TestDifferentialIncrementalVsCold(t *testing.T) {
	trials := 25
	if testing.Short() {
		trials = 6
	}
	rng := rand.New(rand.NewSource(42))
	sawIncremental, sawReused, sawFallback := 0, 0, 0
	for i := 0; i < trials; i++ {
		rows := 2 + rng.Intn(8)
		parent, child := grownMatrix(t, rng, rows, 3+rng.Intn(5), 1+rng.Intn(3))
		for pi, p := range incrSchemes(rng, rows) {
			label := fmt.Sprintf("trial %d scheme %d", i, pi)
			parentModels, err := BuildModels(parent, p, nil)
			if err != nil {
				t.Fatalf("%s: parent models: %v", label, err)
			}
			parentRes, err := Run(context.Background(), parent, p, Options{Workers: 4, Models: parentModels})
			if err != nil {
				t.Fatalf("%s: parent mine: %v", label, err)
			}
			childModels, _, err := RepairModels(child, p, parentModels, nil)
			if err != nil {
				t.Fatalf("%s: repair: %v", label, err)
			}
			cold, err := Run(context.Background(), child, p, Options{Workers: 4, Models: childModels})
			if err != nil {
				t.Fatalf("%s: cold mine: %v", label, err)
			}
			for _, workers := range []int{1, 2, 8} {
				var got []*Bicluster
				stats, info, err := mineIncremental(context.Background(), child, parent, p, workers,
					func(b *Bicluster) bool { got = append(got, b); return true },
					nil, childModels, parentRes)
				if err != nil {
					t.Fatalf("%s workers %d: %v", label, workers, err)
				}
				if !sameClustersExact(cold.Clusters, got) {
					t.Fatalf("%s workers %d: clusters diverge from cold mine\ncold: %v\ngot:  %v",
						label, workers, cold.Clusters, got)
				}
				if stats != cold.Stats {
					t.Fatalf("%s workers %d: stats diverge\ncold: %+v\ngot:  %+v",
						label, workers, cold.Stats, stats)
				}
				if info.Incremental {
					sawIncremental++
					sawReused += info.SubtreesReused
					if info.SubtreesReused+info.SubtreesMined != child.Cols() {
						t.Fatalf("%s workers %d: reused %d + mined %d != %d conditions",
							label, workers, info.SubtreesReused, info.SubtreesMined, child.Cols())
					}
				} else {
					sawFallback++
				}
			}
		}
	}
	if sawIncremental == 0 || sawReused == 0 {
		t.Fatalf("fast path never reused a subtree (incremental runs %d, reused %d) — the differential is vacuous",
			sawIncremental, sawReused)
	}
	t.Logf("incremental runs %d (reused %d subtrees), fallbacks %d", sawIncremental, sawReused, sawFallback)
}

// TestMineIncrementalFallbacks: every ineligible input must take the cold
// path — reporting a reason — and still produce output identical to a plain
// parallel mine under the same Params.
func TestMineIncrementalFallbacks(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rows := 6
	parent, child := grownMatrix(t, rng, rows, 5, 2)
	p := Params{MinG: 2, MinC: 2, Gamma: 1, AbsoluteGamma: true, Epsilon: 0.5}
	parentModels, err := BuildModels(parent, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	parentRes, err := Run(context.Background(), parent, p, Options{Workers: 1, Models: parentModels})
	if err != nil {
		t.Fatal(err)
	}
	childModels, _, err := RepairModels(child, p, parentModels, nil)
	if err != nil {
		t.Fatal(err)
	}

	geneDelta := diffRandomMatrix(rng, 1, child.Cols())
	geneDelta.SetRowName(0, "extra")
	for j := 0; j < child.Cols(); j++ {
		geneDelta.SetColName(j, child.ColName(j))
	}
	grownGenes, err := matrix.AppendGenes(child, geneDelta)
	if err != nil {
		t.Fatal(err)
	}
	grownGenesModels, _, err := RepairModels(grownGenes, p, parentModels, nil)
	if err != nil {
		t.Fatal(err)
	}
	rewritten := child.Clone()
	rewritten.Set(0, 0, rewritten.At(0, 0)+1)
	rewrittenModels, _, err := RepairModels(rewritten, p, parentModels, nil)
	if err != nil {
		t.Fatal(err)
	}
	truncatedRes := &Result{Clusters: parentRes.Clusters, Stats: parentRes.Stats}
	truncatedRes.Stats.Truncated = true
	noSubtreesRes := &Result{Clusters: parentRes.Clusters, Stats: parentRes.Stats}
	capped := p
	capped.MaxNodes = 20
	naive := p
	naive.NaiveCandidates = true

	cases := []struct {
		name      string
		m, parent *matrix.Matrix
		p         Params
		models    []*rwave.Model
		parentRes *Result
		reason    string
	}{
		{"no parent", child, nil, p, childModels, nil, "no parent result"},
		{"gene axis changed", grownGenes, parent, p, grownGenesModels, parentRes, "gene axis changed"},
		{"no appended conditions", parent, parent, p, parentModels, parentRes, "no appended conditions"},
		{"node cap set", child, parent, capped, childModels, parentRes, "node cap requires per-cluster node ordinals"},
		{"naive candidates", child, parent, naive, childModels, parentRes, "naive-candidates ablation"},
		{"parent truncated", child, parent, p, childModels, truncatedRes, "parent result truncated"},
		{"no per-subtree stats", child, parent, p, childModels, noSubtreesRes, "no per-subtree stats"},
		{"values rewritten", rewritten, parent, p, rewrittenModels, parentRes, "parent values rewritten"},
	}
	for _, tc := range cases {
		cold, err := Run(context.Background(), tc.m, tc.p, Options{Workers: 1, Models: tc.models})
		if err != nil {
			t.Fatalf("%s: cold mine: %v", tc.name, err)
		}
		var got []*Bicluster
		stats, info, err := mineIncremental(context.Background(), tc.m, tc.parent, tc.p, 1,
			func(b *Bicluster) bool { got = append(got, b); return true },
			nil, tc.models, tc.parentRes)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if info.Incremental || info.Fallback != tc.reason {
			t.Errorf("%s: info %+v, want fallback %q", tc.name, info, tc.reason)
		}
		if !sameClustersExact(cold.Clusters, got) || stats != cold.Stats {
			t.Errorf("%s: fallback output diverges from cold mine", tc.name)
		}
	}
}

// TestMineIncrementalVisitorStop: a stopping visitor must abandon the stream
// after the delivered prefix and mark the returned Stats truncated.
func TestMineIncrementalVisitorStop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := Params{MinG: 2, MinC: 2, Gamma: 1, AbsoluteGamma: true, Epsilon: 0.5}
	for trial := 0; trial < 20; trial++ {
		parent, child := grownMatrix(t, rng, 2+rng.Intn(6), 4, 2)
		parentModels, err := BuildModels(parent, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		parentRes, err := Run(context.Background(), parent, p, Options{Workers: 2, Models: parentModels})
		if err != nil {
			t.Fatal(err)
		}
		childModels, _, err := RepairModels(child, p, parentModels, nil)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Run(context.Background(), child, p, Options{Workers: 2, Models: childModels})
		if err != nil {
			t.Fatal(err)
		}
		if len(cold.Clusters) < 2 {
			continue
		}
		var got []*Bicluster
		stats, _, err := mineIncremental(context.Background(), child, parent, p, 2,
			func(b *Bicluster) bool { got = append(got, b); return len(got) < 1 },
			nil, childModels, parentRes)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || !sameClustersExact(cold.Clusters[:1], got) {
			t.Fatalf("stop after 1: delivered %d clusters, want the cold prefix of 1", len(got))
		}
		if !stats.Truncated {
			t.Fatal("stats not marked truncated after a visitor stop")
		}
		return
	}
	t.Skip("no trial produced 2+ clusters")
}

// TestMineIncrementalCancelled: a pre-cancelled context must surface as an
// error from the fast path.
func TestMineIncrementalCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p := Params{MinG: 2, MinC: 2, Gamma: 1, AbsoluteGamma: true, Epsilon: 0.5}
	parent, child := grownMatrix(t, rng, 6, 5, 2)
	parentModels, err := BuildModels(parent, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	parentRes, err := Run(context.Background(), parent, p, Options{Workers: 2, Models: parentModels})
	if err != nil {
		t.Fatal(err)
	}
	childModels, _, err := RepairModels(child, p, parentModels, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err = mineIncremental(ctx, child, parent, p, 2,
		func(*Bicluster) bool { return true },
		nil, childModels, parentRes)
	if err == nil {
		t.Fatal("cancelled context produced no error")
	}
}

// TestSpliceWorkerPanicContained: a panic while mining a dirty subtree on
// the incremental path must surface as a *PanicError from Run, like the
// cold pool's, and the same inputs must succeed once the fault is gone.
func TestSpliceWorkerPanicContained(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	rng := rand.New(rand.NewSource(13))
	p := Params{MinG: 2, MinC: 2, Gamma: 1, AbsoluteGamma: true, Epsilon: 0.5}
	for trial := 0; trial < 20; trial++ {
		parent, child := grownMatrix(t, rng, 6, 5, 1)
		parentModels, err := BuildModels(parent, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		parentRes, err := Run(context.Background(), parent, p, Options{Models: parentModels})
		if err != nil {
			t.Fatal(err)
		}
		childModels, _, err := RepairModels(child, p, parentModels, nil)
		if err != nil {
			t.Fatal(err)
		}
		mine := func(workers int) (IncrementalInfo, error) {
			_, info, err := mineIncremental(context.Background(), child, parent, p, workers,
				func(*Bicluster) bool { return true }, nil, childModels, parentRes)
			return info, err
		}
		if info, err := mine(2); err != nil || !info.Incremental {
			continue // this delta falls back to the pool; try another
		}
		for _, workers := range []int{1, 2} {
			disarm := faultinject.Arm("core.mine.subtree", faultinject.Spec{Panic: "boom in a dirty subtree", Times: 1})
			info, err := mine(workers)
			disarm()
			var perr *PanicError
			if !errors.As(err, &perr) || !strings.Contains(perr.Error(), "boom in a dirty subtree") || len(perr.Stack) == 0 {
				t.Fatalf("workers=%d: err = %v, want the contained *PanicError with a stack", workers, err)
			}
			if !info.Incremental {
				t.Fatalf("workers=%d: the panicking run did not take the incremental path", workers)
			}
			if _, err := mine(workers); err != nil {
				t.Fatalf("workers=%d: post-panic run failed: %v", workers, err)
			}
		}
		return
	}
	t.Fatal("no trial took the incremental path")
}

// TestDifferentialSpliceCapsCheckpointsResume: with the parent's per-subtree
// Stats, a Splice is an ordinary merger source. On random append deltas
// across every threshold scheme, each run below must take the incremental
// path and match the cold Run with the same options byte for byte —
// clusters, Stats, Subtrees and checkpoint sequence:
//   - MaxClusters caps 0 through 5;
//   - a checkpoint after every delivered cluster;
//   - a resume from every one of those checkpoints;
//   - a visitor stop after every prefix of the output.
//
// Runs under -race in CI.
func TestDifferentialSpliceCapsCheckpointsResume(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 10
	}
	rng := rand.New(rand.NewSource(20261018))
	type outcome struct {
		clusters []*Bicluster
		snaps    []Checkpoint
		res      *Result
	}
	run := func(t *testing.T, child *matrix.Matrix, p Params, workers int, models []*rwave.Model,
		splice *Splice, resume *Checkpoint, every, stopAfter int) outcome {
		t.Helper()
		var out outcome
		o := Options{Workers: workers, Models: models, Resume: resume, Visit: func(b *Bicluster) bool {
			out.clusters = append(out.clusters, b)
			return stopAfter <= 0 || len(out.clusters) < stopAfter
		}}
		if every > 0 {
			o.Checkpoint = CheckpointConfig{EveryClusters: every, OnCheckpoint: func(ck Checkpoint) {
				out.snaps = append(out.snaps, ck)
			}}
		}
		if splice != nil {
			o.Source = splice
		}
		res, err := Run(context.Background(), child, p, o)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		out.res = res
		return out
	}
	covered, reused, resumes, stops := 0, 0, 0, 0
	for i := 0; i < trials; i++ {
		rows := 6 + rng.Intn(10)
		parent, child := grownMatrix(t, rng, rows, 5+rng.Intn(5), 1+rng.Intn(2))
		for pi, p := range incrSchemes(rng, rows) {
			parentRes, err := Run(context.Background(), parent, p, Options{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			childModels, err := BuildModels(child, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			probe := &Splice{Parent: parent, ParentResult: parentRes}
			run(t, child, p, 1, childModels, probe, nil, 0, 0)
			if !probe.Info().Incremental {
				continue // relative-γ drift or a fully dirty delta: no splice to test
			}
			covered++
			reused += probe.Info().SubtreesReused
			workers := 1 + (i+pi)%3
			check := func(label string, capped Params, resume *Checkpoint, every, stopAfter int) {
				t.Helper()
				label = fmt.Sprintf("trial %d scheme %d workers %d %s", i, pi, workers, label)
				splice := &Splice{Parent: parent, ParentResult: parentRes}
				got := run(t, child, capped, workers, childModels, splice, resume, every, stopAfter)
				want := run(t, child, capped, workers, childModels, nil, resume, every, stopAfter)
				if info := splice.Info(); !info.Incremental {
					t.Fatalf("%s: fell back: %q", label, info.Fallback)
				}
				if !sameClustersExact(want.clusters, got.clusters) {
					t.Fatalf("%s: clusters diverge\ncold: %v\ngot:  %v", label, want.clusters, got.clusters)
				}
				if !reflect.DeepEqual(want.res, got.res) {
					t.Fatalf("%s: result diverges\ncold: %+v\ngot:  %+v", label, want.res, got.res)
				}
				if !reflect.DeepEqual(want.snaps, got.snaps) {
					t.Fatalf("%s: checkpoints diverge\ncold: %+v\ngot:  %+v", label, want.snaps, got.snaps)
				}
			}
			for maxClusters := 0; maxClusters <= 5; maxClusters++ {
				capped := p
				capped.MaxClusters = maxClusters
				check(fmt.Sprintf("MaxClusters %d", maxClusters), capped, nil, 0, 0)
			}
			cold := run(t, child, p, workers, childModels, nil, nil, 1, 0)
			check("checkpoint every cluster", p, nil, 1, 0)
			for k, ck := range cold.snaps {
				check(fmt.Sprintf("resume from checkpoint %d %+v", k, ck), p, &ck, 1, 0)
				resumes++
			}
			for stop := 1; stop <= len(cold.clusters); stop++ {
				check(fmt.Sprintf("visitor stop after %d", stop), p, nil, 0, stop)
				stops++
			}
		}
	}
	if reused == 0 || resumes == 0 || stops == 0 {
		t.Fatalf("vacuous: %d subtrees reused, %d resumes, %d visitor stops", reused, resumes, stops)
	}
	t.Logf("%d incremental (trial, scheme) pairs, %d subtrees reused, %d resumes, %d visitor stops",
		covered, reused, resumes, stops)
}

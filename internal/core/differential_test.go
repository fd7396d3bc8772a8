package core

// Differential tests: the optimized miner (scratch arena, bitsets,
// non-reflective sorts, hashed dedup) must reproduce the frozen seed
// implementation of reference_test.go exactly — same clusters, same
// depth-first enumeration order, same Stats — on randomized inputs, for
// every parameter combination, and through the parallel front-end at
// 1/2/8 workers (which must in turn match the sequential result even when
// truncated by the global caps).

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"regcluster/internal/matrix"
)

// diffRandomMatrix draws a rows×cols matrix from a small integer value grid so
// that ties, shared steps and γ-boundary pairs — the cases where the sort
// order and the RWave pointer structure are most delicate — occur often.
func diffRandomMatrix(rng *rand.Rand, rows, cols int) *matrix.Matrix {
	m := matrix.New(rows, cols)
	levels := 2 + rng.Intn(8)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, float64(rng.Intn(levels)))
		}
	}
	return m
}

// diffParams is the parameter grid one random matrix is mined under.
func diffParams(rng *rand.Rand) []Params {
	base := []Params{
		{MinG: 2, MinC: 2, Gamma: 0.1, Epsilon: 0.25},
		{MinG: 2, MinC: 3, Gamma: 0, Epsilon: 0},
		{MinG: 3, MinC: 2, Gamma: 0.3, Epsilon: 1.5},
		{MinG: 2, MinC: 2, Gamma: 0.1, Epsilon: 0.25, NaiveCandidates: true},
		{MinG: 2, MinC: 2, Gamma: 0.2, Epsilon: 0.5, DisableChainLengthPruning: true},
		{MinG: 2, MinC: 2, Gamma: 0.2, Epsilon: 0.5, DisableMajorityPruning: true, DisableDedupPruning: true},
	}
	// Truncated runs must agree too: the caps trip at the same node/cluster.
	capped := base[rng.Intn(len(base))]
	capped.MaxNodes = 1 + rng.Intn(40)
	base = append(base, capped)
	capped2 := base[rng.Intn(len(base)-1)]
	capped2.MaxClusters = 1 + rng.Intn(4)
	return append(base, capped2)
}

func sameClustersExact(a, b []*Bicluster) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !equalInts(a[i].Chain, b[i].Chain) ||
			!equalInts(a[i].PMembers, b[i].PMembers) ||
			!equalInts(a[i].NMembers, b[i].NMembers) {
			return false
		}
	}
	return true
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkDifferential mines m under p with every front-end and fails the test
// on the first divergence from the reference oracle.
func checkDifferential(t *testing.T, m *matrix.Matrix, p Params, label string) {
	t.Helper()
	ref, err := referenceMine(m, p)
	if err != nil {
		t.Fatalf("%s: reference error: %v", label, err)
	}
	got, err := Mine(m, p)
	if err != nil {
		t.Fatalf("%s: optimized error: %v", label, err)
	}
	if !sameClustersExact(ref.Clusters, got.Clusters) {
		t.Fatalf("%s: optimized clusters diverge from reference\nref: %v\ngot: %v",
			label, ref.Clusters, got.Clusters)
	}
	if ref.Stats != got.Stats {
		t.Fatalf("%s: optimized Stats diverge\nref: %+v\ngot: %+v", label, ref.Stats, got.Stats)
	}
	for _, workers := range []int{1, 2, 8} {
		par, err := Run(context.Background(), m, p, Options{Workers: workers})
		if err != nil {
			t.Fatalf("%s: parallel(%d) error: %v", label, workers, err)
		}
		if !sameClustersExact(ref.Clusters, par.Clusters) {
			t.Fatalf("%s: parallel(%d) clusters diverge\nref: %v\ngot: %v",
				label, workers, ref.Clusters, par.Clusters)
		}
		if ref.Stats != par.Stats {
			t.Fatalf("%s: parallel(%d) Stats diverge\nref: %+v\ngot: %+v",
				label, workers, ref.Stats, par.Stats)
		}
	}
}

// TestDifferentialRandomMatrices is the main property test. It runs under
// -race in CI (make check), covering the parallel workers too.
func TestDifferentialRandomMatrices(t *testing.T) {
	cases := 40
	if testing.Short() {
		cases = 8
	}
	rng := rand.New(rand.NewSource(20260806))
	for i := 0; i < cases; i++ {
		rows := 2 + rng.Intn(9)
		cols := 2 + rng.Intn(6)
		m := diffRandomMatrix(rng, rows, cols)
		for pi, p := range diffParams(rng) {
			checkDifferential(t, m, p, fmt.Sprintf("case %d (%dx%d) params %d {%+v}", i, rows, cols, pi, p))
		}
	}
}

// TestDifferentialRunningExample pins the oracle to the paper's Table 1
// walk-through as a known-answer anchor (the random grid above could in
// principle miss the long-chain regime).
func TestDifferentialRunningExample(t *testing.T) {
	m := matrix.New(4, 7)
	// The Figure 1 / Table 1 running example values (see paperdata): 4 genes
	// x 7 conditions with one planted reg-cluster.
	vals := [][]float64{
		{1.5, 2.5, 3.0, 4.0, 5.0, 5.5, 6.5},
		{3.0, 5.0, 6.0, 8.0, 10.0, 11.0, 13.0},
		{13.0, 11.0, 10.0, 8.0, 6.0, 5.0, 3.0},
		{4.0, 2.0, 7.0, 1.0, 9.0, 3.0, 8.0},
	}
	for i, row := range vals {
		for j, v := range row {
			m.Set(i, j, v)
		}
	}
	for _, p := range []Params{
		{MinG: 2, MinC: 3, Gamma: 0.1, Epsilon: 0.5},
		{MinG: 3, MinC: 5, Gamma: 0.15, Epsilon: 0.1},
		{MinG: 2, MinC: 4, Gamma: 0.05, Epsilon: 1.0, NaiveCandidates: true},
	} {
		checkDifferential(t, m, p, fmt.Sprintf("running-example {%+v}", p))
	}
}

// TestDifferentialNaNGamma exercises the γ=0 denormal/NonFiniteH path.
func TestDifferentialNaNGamma(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10; i++ {
		m := diffRandomMatrix(rng, 2+rng.Intn(6), 2+rng.Intn(5))
		p := Params{MinG: 2, MinC: 2, Gamma: 0, Epsilon: 0.5}
		checkDifferential(t, m, p, fmt.Sprintf("gamma0 case %d", i))
	}
}

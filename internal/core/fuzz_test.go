package core

import (
	"context"
	"testing"

	"regcluster/internal/matrix"
)

// FuzzMine throws arbitrary small matrices and parameters at the miner: it
// must never panic, every output must satisfy Definition 3.2, and the
// optimized hot path must reproduce the frozen pre-optimization reference
// (reference_test.go) exactly — clusters, enumeration order, and Stats.
func FuzzMine(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6}, 3, uint8(10), uint8(50))
	f.Add([]byte{0, 0, 0, 0}, 2, uint8(0), uint8(0))
	f.Add([]byte{255, 0, 255, 0, 128, 7}, 2, uint8(99), uint8(255))
	f.Fuzz(func(t *testing.T, cells []byte, cols int, gammaB, epsB uint8) {
		if cols < 2 || cols > 6 || len(cells) < 2*cols {
			return
		}
		rows := len(cells) / cols
		if rows > 8 {
			rows = 8
		}
		m := matrix.New(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				m.Set(i, j, float64(cells[i*cols+j]))
			}
		}
		p := Params{
			MinG:    2,
			MinC:    2,
			Gamma:   float64(gammaB%101) / 100,
			Epsilon: float64(epsB) / 16,
		}
		res, err := Mine(m, p)
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		for _, b := range res.Clusters {
			if err := CheckBicluster(m, p, b); err != nil {
				t.Fatalf("invalid output %v: %v\nmatrix %v params %+v", b, err, m, p)
			}
		}
		// The zero-allocation path must be indistinguishable from the seed
		// semantics.
		ref, err := referenceMine(m, p)
		if err != nil {
			t.Fatalf("reference error: %v", err)
		}
		if !sameClustersExact(ref.Clusters, res.Clusters) {
			t.Fatalf("optimized diverged from reference: %d vs %d clusters", len(res.Clusters), len(ref.Clusters))
		}
		if ref.Stats != res.Stats {
			t.Fatalf("Stats diverged from reference:\nref %+v\ngot %+v", ref.Stats, res.Stats)
		}
		// Parallel must agree.
		par, err := Run(context.Background(), m, p, Options{Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		if !sameClusterKeys(res.Clusters, par.Clusters) {
			t.Fatalf("parallel diverged: %d vs %d clusters", len(par.Clusters), len(res.Clusters))
		}
	})
}

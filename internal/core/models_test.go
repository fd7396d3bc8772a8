package core

import (
	"context"
	"math"
	"reflect"
	"testing"
)

// TestWithModelsEquivalence: mining with a prebuilt model set must reproduce
// the plain Mine output exactly — clusters and Stats — sequentially and in
// parallel, for each γ-scheme.
func TestWithModelsEquivalence(t *testing.T) {
	m := randomMatrix(40, 10, 99)
	schemes := []struct {
		name string
		p    Params
	}{
		{"relative", Params{MinG: 3, MinC: 3, Gamma: 0.05, Epsilon: 0.8}},
		{"absolute", Params{MinG: 3, MinC: 3, Gamma: 0.4, Epsilon: 0.8, AbsoluteGamma: true}},
		{"custom", Params{MinG: 3, MinC: 3, Gamma: 0.05, Epsilon: 0.8,
			CustomGammas: ThresholdsMeanFraction(randomMatrix(40, 10, 99), 0.05)}},
	}
	for _, tc := range schemes {
		t.Run(tc.name, func(t *testing.T) {
			want, err := Mine(m, tc.p)
			if err != nil {
				t.Fatalf("Mine: %v", err)
			}
			models, err := BuildModels(m, tc.p, nil)
			if err != nil {
				t.Fatalf("BuildModels: %v", err)
			}
			// The shared build serves runs that vary every non-γ knob.
			variants := []Params{tc.p}
			eps := tc.p
			eps.Epsilon = 0.5
			variants = append(variants, eps)
			for _, p := range variants {
				seqWant, err := Mine(m, p)
				if err != nil {
					t.Fatalf("Mine variant: %v", err)
				}
				got, err := Run(context.Background(), m, p, Options{Workers: 1, Models: models})
				if err != nil {
					t.Fatalf("sequential Run with models: %v", err)
				}
				if !reflect.DeepEqual(got, seqWant) {
					t.Fatalf("sequential Run with models diverges from Mine (ε=%v)", p.Epsilon)
				}
				par, err := Run(context.Background(), m, p, Options{Workers: 4, Models: models})
				if err != nil {
					t.Fatalf("parallel Run with models: %v", err)
				}
				if !reflect.DeepEqual(par, seqWant) {
					t.Fatalf("parallel Run with models diverges from Mine (ε=%v)", p.Epsilon)
				}
			}
			_ = want
		})
	}
}

// TestWithModelsResumable: the resumable entry accepts a shared build and
// still matches the sequential run.
func TestWithModelsResumable(t *testing.T) {
	m := randomMatrix(30, 9, 5)
	p := Params{MinG: 3, MinC: 3, Gamma: 0.05, Epsilon: 0.8}
	want, err := Mine(m, p)
	if err != nil {
		t.Fatal(err)
	}
	models, err := BuildModels(m, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []*Bicluster
	stats, err := MineParallelFuncResumableWithModels(nil, m, p, 3, func(b *Bicluster) bool {
		got = append(got, b)
		return true
	}, nil, nil, CheckpointConfig{}, models)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want.Clusters) || !reflect.DeepEqual(stats, want.Stats) {
		t.Fatal("resumable WithModels run diverges from Mine")
	}
}

// TestWithModelsRejectsBadInputs: a prebuilt model set does not bypass input
// validation, and a gene-count mismatch is caught.
func TestWithModelsRejectsBadInputs(t *testing.T) {
	m := randomMatrix(20, 8, 1)
	p := Params{MinG: 3, MinC: 3, Gamma: 0.05, Epsilon: 0.8}
	models, err := BuildModels(m, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := p
	bad.Epsilon = math.NaN()
	if _, err := Run(context.Background(), m, bad, Options{Workers: 1, Models: models}); err == nil {
		t.Error("non-finite Epsilon accepted via WithModels")
	}
	if _, err := Run(context.Background(), m, p, Options{Workers: 1, Models: models[:10]}); err == nil {
		t.Error("model/gene count mismatch accepted")
	}
	if _, err := Run(context.Background(), m, p, Options{Workers: 2, Models: models[:10]}); err == nil {
		t.Error("model/gene count mismatch accepted by parallel entry")
	}
	if _, err := BuildModels(m, bad, nil); err == nil {
		t.Error("BuildModels accepted non-finite Epsilon")
	}
}

// TestModelKey pins the canonical key semantics: identity on the γ-scheme
// only, sensitivity to everything that changes the index.
func TestModelKey(t *testing.T) {
	base := Params{MinG: 3, MinC: 3, Gamma: 0.05, Epsilon: 0.8}
	key := ModelKey("ds1", base)

	// ε/MinG/MinC/caps/ablations do not change the key.
	same := base
	same.Epsilon = 2.5
	same.MinG, same.MinC = 10, 5
	same.MaxClusters, same.MaxNodes = 7, 7
	same.NaiveCandidates = true
	if got := ModelKey("ds1", same); got != key {
		t.Errorf("non-γ knobs changed the key: %q vs %q", got, key)
	}

	// Everything that changes the index changes the key.
	diff := map[string]Params{
		"gamma":    {Gamma: 0.06},
		"absolute": {Gamma: 0.05, AbsoluteGamma: true},
		"custom":   {Gamma: 0.05, CustomGammas: []float64{1, 2}},
	}
	seen := map[string]string{"base": key}
	for name, p := range diff {
		p.MinG, p.MinC, p.Epsilon = 3, 3, 0.8
		k := ModelKey("ds1", p)
		for prev, pk := range seen {
			if k == pk {
				t.Errorf("ModelKey(%s) == ModelKey(%s)", name, prev)
			}
		}
		seen[name] = k
	}
	if ModelKey("ds2", base) == key {
		t.Error("dataset hash not part of the key")
	}

	// Same relative vs absolute γ value must not collide; custom digests are
	// order- and value-sensitive.
	if ModelKey("d", Params{Gamma: 0.1}) == ModelKey("d", Params{Gamma: 0.1, AbsoluteGamma: true}) {
		t.Error("rel/abs scheme collision")
	}
	c1 := ModelKey("d", Params{CustomGammas: []float64{1, 2}})
	c2 := ModelKey("d", Params{CustomGammas: []float64{2, 1}})
	if c1 == c2 {
		t.Error("custom digest ignores order")
	}

	// Total even on non-finite values (Validate rejects them upstream, but
	// the key function itself must never panic or conflate).
	n1 := ModelKey("d", Params{Gamma: math.NaN()})
	n2 := ModelKey("d", Params{Gamma: math.Inf(1)})
	if n1 == n2 || n1 == ModelKey("d", Params{Gamma: 0}) {
		t.Error("non-finite γ values conflated")
	}
}

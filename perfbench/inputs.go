package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"regcluster/internal/core"
	"regcluster/internal/dataset"
	"regcluster/internal/experiments"
	"regcluster/internal/matrix"
	"regcluster/internal/synthetic"
)

// input is one generated dataset with the parameters its jobs mine it with.
// key names its values for the reference gate: renamed copies share it.
type input struct {
	key    string
	m      *matrix.Matrix
	tsv    []byte
	params core.Params
}

func newInput(key string, m *matrix.Matrix, p core.Params) *input {
	return &input{key: key, m: m, tsv: tsvOf(m), params: p}
}

func tsvOf(m *matrix.Matrix) []byte {
	var buf bytes.Buffer
	if err := m.WriteTSV(&buf); err != nil {
		panic(err) // a bytes.Buffer write cannot fail
	}
	return buf.Bytes()
}

// sizes are the input shapes of one scale. full is the benchmark; tiny lets
// the package tests run every workload in about a second.
type sizes struct {
	fig7Genes, fig7Conds, fig7Clusters int // Figure 7 paper-default dataset
	smallGenes, smallConds             int // the 1000×20 Figure 7 dataset
	yeastGenes                         int
	ladderGenes                        int
}

func scaleOf(opt options) sizes {
	if opt.tiny {
		return sizes{fig7Genes: 400, fig7Conds: 16, fig7Clusters: 6, smallGenes: 300, smallConds: 12, yeastGenes: 400, ladderGenes: 120}
	}
	return sizes{fig7Genes: 3000, fig7Conds: 30, fig7Clusters: 30, smallGenes: 1000, smallConds: 20,
		yeastGenes: dataset.YeastGenes, ladderGenes: 400}
}

// Generator seeds of the base datasets. They are fixed, as the paper's
// datasets are: where in the search the first cluster lies, and so the
// time to first cluster, varies between generator seeds by a factor of ten,
// far more than any layer change would move it. The run seed varies what a
// caller varies instead: gene order, names, parameters, delta values and the
// job schedule.
const (
	fig7Seed  = 1 // the Figure 7 rows of BENCH_N.json use seed 1
	smallSeed = 2
	freshSeed = 100
)

// fig7 generates a Figure 7 synthetic dataset (Section 5.1 generator) and
// pairs it with the Figure 7 mining defaults.
func fig7(genes, conds, clusters int, seed int64) (*matrix.Matrix, core.Params) {
	cfg := synthetic.Config{Genes: genes, Conds: conds, Clusters: clusters, Seed: seed}
	m, _, err := synthetic.Generate(cfg)
	if err != nil {
		panic(fmt.Sprintf("synthetic %d×%d: %v", genes, conds, err)) // fixed valid shapes
	}
	return m, experiments.MiningDefaults(genes)
}

// yeast generates the 2884×17 yeast substitute (Section 5.2, its default
// generator seed) with the Section 5.2 parameters.
func yeast(genes int) (*matrix.Matrix, core.Params) {
	cfg := dataset.DefaultYeastConfig()
	cfg.Genes = genes
	if genes < dataset.YeastGenes {
		cfg.Modules = 4
	}
	m, _, err := dataset.GenerateYeastLike(cfg)
	if err != nil {
		panic(fmt.Sprintf("yeast substitute: %v", err)) // fixed valid shapes
	}
	return m, experiments.YeastParams()
}

// paperInputs returns the batch-paper datasets, the Figure 7 paper default
// and the yeast substitute, with gene order drawn from rng.
func paperInputs(sz sizes, rng *rand.Rand) (fig, yst *input) {
	fm, fp := fig7(sz.fig7Genes, sz.fig7Conds, sz.fig7Clusters, fig7Seed)
	ym, yp := yeast(sz.yeastGenes)
	return newInput("fig7", permuteGenes(fm, rng), fp), newInput("yeast", permuteGenes(ym, rng), yp)
}

// permuteGenes returns m with its rows (names and values) in a seeded
// order: new bytes and a new content address for the same mining work.
func permuteGenes(m *matrix.Matrix, rng *rand.Rand) *matrix.Matrix {
	perm := rng.Perm(m.Rows())
	names := make([]string, len(perm))
	for i, g := range perm {
		names[i] = m.RowName(g)
	}
	out := matrix.NewWithNames(names, m.ColNames())
	for i, g := range perm {
		copy(out.Row(i), m.Row(g))
	}
	return out
}

// Ladder geometry of experiment E13: 24 baseline arrays inside one γ band
// plus six expression rungs at spacing 3, under an absolute γ = 2.
const (
	ladderBase  = 24
	ladderRungs = 6
)

// ladderParams are the E13 mining parameters.
var ladderParams = core.Params{MinG: 40, MinC: 4, Gamma: 2, AbsoluteGamma: true, Epsilon: 0.05}

// ladderShift is gene g's offset: every gene shares the ladder profile,
// shifted, with a seeded jitter far below the 0.02 baseline spacing.
func ladderShift(g int, rng *rand.Rand) float64 {
	return 0.001*float64(g) + 0.0004*rng.Float64()
}

// ladder generates the E13 dataset (DESIGN.md §15): appended arrays that
// land inside the baseline band regulate only against the six rungs, so 24
// of 32 subtrees splice from the parent run.
func ladder(genes int, seed int64) *matrix.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := matrix.New(genes, ladderBase+ladderRungs)
	for j := 0; j < ladderBase+ladderRungs; j++ {
		m.SetColName(j, fmt.Sprintf("c%02d", j))
	}
	for g := 0; g < genes; g++ {
		m.SetRowName(g, fmt.Sprintf("g%03d", g))
		shift := ladderShift(g, rng)
		for j := 0; j < ladderBase; j++ {
			m.Set(g, j, 0.02*float64(j)+shift)
		}
		for k := 0; k < ladderRungs; k++ {
			m.Set(g, ladderBase+k, 3*float64(k+1)+shift)
		}
	}
	return m
}

// renamedGenes returns a copy of m whose gene names carry prefix: a new
// content address (the hash covers names) over the same values, so it mines
// to the same clusters under new labels.
func renamedGenes(m *matrix.Matrix, prefix string) *matrix.Matrix {
	c := m.Clone()
	for g := 0; g < c.Rows(); g++ {
		c.SetRowName(g, prefix+m.RowName(g))
	}
	return c
}

// Delta kinds of the live-append workload.
const (
	deltaLadderConds = "ladder-conds" // near-replicate arrays: clean, 24/32 subtrees reused
	deltaSmallConds  = "small-conds"  // random in-range arrays: mostly dirty
	deltaLadderGenes = "ladder-genes" // gene axis: cold fallback
	deltaSmallGenes  = "small-genes"  // gene axis: cold fallback
)

// delta is one append payload: values from a small seeded pool (so the
// reference mine of each pool entry is shared) under names unique to the
// iteration (so each append makes a new dataset version).
type delta struct {
	kind string
	pool int
	axis string
	m    *matrix.Matrix
}

// deltaPool holds the seeded delta values per kind; iteration names are
// applied by named.
type deltaPool struct {
	values map[string][]*matrix.Matrix
}

const poolSize = 4

func newDeltaPool(ladderM, small *matrix.Matrix, seed int64) *deltaPool {
	rng := rand.New(rand.NewSource(seed))
	p := &deltaPool{values: make(map[string][]*matrix.Matrix)}
	for k := 0; k < poolSize; k++ {
		// Two arrays inside the ladder's baseline band, per-gene shifted.
		lc := matrix.New(ladderM.Rows(), 2)
		a, b := 0.05+0.4*rng.Float64(), 0.05+0.4*rng.Float64()
		for g := 0; g < ladderM.Rows(); g++ {
			shift := ladderM.At(g, 0)
			lc.Set(g, 0, a+shift)
			lc.Set(g, 1, b+shift)
		}
		p.values[deltaLadderConds] = append(p.values[deltaLadderConds], lc)

		// Two arrays drawn inside each gene's observed range: the relative
		// γ thresholds cannot drift, but most conditions regulate against
		// some appended value.
		sc := matrix.New(small.Rows(), 2)
		for g := 0; g < small.Rows(); g++ {
			lo, hi := rowRange(small.Row(g))
			sc.Set(g, 0, lo+(hi-lo)*rng.Float64())
			sc.Set(g, 1, lo+(hi-lo)*rng.Float64())
		}
		p.values[deltaSmallConds] = append(p.values[deltaSmallConds], sc)

		// Four genes on the ladder profile, continuing the shift sequence.
		lg := matrix.New(4, ladderM.Cols())
		for i := 0; i < 4; i++ {
			shift := ladderShift(ladderM.Rows()+i, rng)
			for j := 0; j < ladderBase; j++ {
				lg.Set(i, j, 0.02*float64(j)+shift)
			}
			for r := 0; r < ladderRungs; r++ {
				lg.Set(i, ladderBase+r, 3*float64(r+1)+shift)
			}
		}
		p.values[deltaLadderGenes] = append(p.values[deltaLadderGenes], lg)

		// Ten background genes, uniform like the generator's noise.
		sg := matrix.New(10, small.Cols())
		for i := 0; i < 10; i++ {
			for j := 0; j < small.Cols(); j++ {
				sg.Set(i, j, 10*rng.Float64())
			}
		}
		p.values[deltaSmallGenes] = append(p.values[deltaSmallGenes], sg)
	}
	return p
}

func rowRange(row []float64) (lo, hi float64) {
	lo, hi = row[0], row[0]
	for _, v := range row[1:] {
		lo, hi = min(lo, v), max(hi, v)
	}
	return lo, hi
}

// named returns pool entry k of kind for iteration it, labelled against
// parent: appended conditions or genes get names unique to the iteration.
func (p *deltaPool) named(kind string, k, it int, parent *matrix.Matrix) delta {
	v := p.values[kind][k]
	d := delta{kind: kind, pool: k, axis: "conditions"}
	switch kind {
	case deltaLadderConds, deltaSmallConds:
		cols := make([]string, v.Cols())
		for j := range cols {
			cols[j] = fmt.Sprintf("new%d-%d", it, j)
		}
		d.m = matrix.NewWithNames(parent.RowNames(), cols)
	default:
		d.axis = "genes"
		rows := make([]string, v.Rows())
		for i := range rows {
			rows[i] = fmt.Sprintf("new%d-%d", it, i)
		}
		d.m = matrix.NewWithNames(rows, parent.ColNames())
	}
	for i := 0; i < v.Rows(); i++ {
		copy(d.m.Row(i), v.Row(i))
	}
	return d
}

// grow applies d to parent the way the service does.
func (d delta) grow(parent *matrix.Matrix) (*matrix.Matrix, error) {
	if d.axis == "genes" {
		return matrix.AppendGenes(parent, d.m)
	}
	return matrix.AppendConditions(parent, d.m)
}

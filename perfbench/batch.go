package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"time"

	"regcluster/internal/core"
	"regcluster/internal/matrix"
	"regcluster/internal/report"
)

// batchWorkers is the mining thread count of the in-process workload.
const batchWorkers = 2

// batchSchedule interleaves the two datasets three Figure 7 jobs to one
// yeast job. With an even split the medians would fall between the two job
// sizes and flip from run to run; at 3:1 job_p50_s and ingest_p50_s sit at
// the lower third of the Figure 7 jobs, clear of the yeast jobs' upper tail.
var batchSchedule = []int{0, 1, 0, 0}

// batchPaper is the library/CLI path in one process, one caller: each job
// parses a TSV, hashes it, builds the RWave index, mines with the streaming
// parallel miner and renders the result document.
func batchPaper(r *recorder) error {
	sz := scaleOf(r.cfg.opt)
	fig, yst := paperInputs(sz, rand.New(rand.NewSource(r.cfg.seed)))
	inputs := []*input{fig, yst}

	// Set-up is the load step a library caller pays before its first mine:
	// parse, hash and index each dataset once.
	_, err := setup(r, func() (struct{}, error) {
		for _, in := range inputs {
			m, err := matrix.ReadTSV(bytes.NewReader(in.tsv))
			if err != nil {
				return struct{}{}, err
			}
			m.Hash()
			if _, err := core.BuildModels(m, in.params, nil); err != nil {
				return struct{}{}, err
			}
		}
		return struct{}{}, nil
	}, func(struct{}) {})
	if err != nil {
		return err
	}

	deadline := r.beginWindow()
	for i := 0; time.Now().Before(deadline); i++ {
		in := inputs[batchSchedule[i%len(batchSchedule)]]
		if err := batchJob(r, in, i); err != nil {
			r.fail("batch job %d (%s): %v", i, in.key, err)
		}
	}
	r.endWindow()
	return nil
}

// batchJob runs one parse → hash → RWave build → streamed mine → render job.
func batchJob(r *recorder, in *input, i int) error {
	ct := startJob(r.traced)
	t0 := time.Now()
	sp := ct.span("matrix.parse")
	m, err := matrix.ReadTSV(bytes.NewReader(in.tsv))
	sp.End()
	parse := time.Since(t0)
	if err != nil {
		return err
	}
	sp = ct.span("matrix.hash")
	m.Hash()
	sp.End()
	ingest := time.Since(t0)

	var o core.Observer
	sp = ct.span("core.build_models")
	o.SetSpan(sp)
	models, err := core.BuildModels(m, in.params, &o)
	sp.End()
	if err != nil {
		return err
	}

	sp = ct.span("core.mine")
	o.SetSpan(sp)
	var clusters []*core.Bicluster
	tMine := time.Now()
	var first time.Time
	visit := func(b *core.Bicluster) bool {
		if first.IsZero() {
			first = time.Now()
		}
		clusters = append(clusters, b)
		return true
	}
	stats, err := core.MineParallelFuncResumableWithModels(context.Background(), m, in.params, batchWorkers,
		visit, &o, nil, core.CheckpointConfig{}, models)
	sp.End()
	if err != nil {
		return err
	}

	sp = ct.span("report.render")
	var doc bytes.Buffer
	rep := report.FromResult(m, in.params, &core.Result{Clusters: clusters, Stats: stats})
	err = rep.Write(&doc)
	sp.End()
	if err != nil {
		return err
	}
	latency := time.Since(t0).Seconds()

	j := jobRecord{kind: in.key, latency: latency, ttfc: -1, stats: stats, tree: ct.finish(nil, time.Time{})}
	if !first.IsZero() {
		j.ttfc = first.Sub(t0).Seconds()
		j.layer = map[string]float64{"core.ttfc_s": first.Sub(tMine).Seconds()}
	}
	if r.traced {
		if j.layer == nil {
			j.layer = make(map[string]float64)
		}
		j.layer["matrix.mb_per_s"] = float64(len(in.tsv)) / 1e6 / parse.Seconds()
		j.layer["report.bytes"] = float64(doc.Len())
	}
	r.addJob(j)
	r.addIngest(ingest.Seconds())
	r.refs.expect(expectation{
		what:   fmt.Sprintf("batch job %d (%s)", i, in.key),
		spec:   refSpec{key: in.key, matrix: func() *matrix.Matrix { return in.m }, params: in.params},
		form:   formDoc,
		got:    digest(doc.Bytes()),
		sample: sampleOf(rep.Clusters),
	})
	return nil
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"regcluster/internal/matrix"
	"regcluster/internal/service"
)

// liveBlock is the repeating order of live-append iterations: five clean
// near-replicate condition deltas on the E13 ladder, one random in-range
// condition delta on the 1000×20 Figure 7 parent, and one gene-axis delta
// on each parent. The clean ladder jobs fill the middle of the latency
// distribution, so job_p50_s measures the incremental path rather than the
// boundary between job kinds. The order is fixed, not shuffled, so a window
// that ends mid-block holds the same mix in every run; the seed picks the
// delta values.
var liveBlock = []string{
	deltaLadderConds, deltaSmallConds, deltaLadderConds, deltaLadderGenes,
	deltaLadderConds, deltaSmallGenes, deltaLadderConds, deltaLadderConds,
}

const liveWorkers = 2

// liveParent is one parent dataset mined at set-up.
type liveParent struct {
	in *input
	id string
}

type liveEnv struct {
	srv     *server
	parents map[string]*liveParent // by delta kind
}

// liveAppend drives the incremental path: append a delta to a mined parent,
// mine the child, stream it, diff it against the parent, delete it.
func liveAppend(r *recorder) error {
	sz := scaleOf(r.cfg.opt)
	rng := rand.New(rand.NewSource(r.cfg.seed))
	lm := permuteGenes(ladder(sz.ladderGenes, r.cfg.seed), rng)
	sm, sp := fig7(sz.smallGenes, sz.smallConds, 30, smallSeed)
	sm = permuteGenes(sm, rng)
	ladderIn := newInput("ladder", lm, ladderParams)
	smallIn := newInput("small", sm, sp)
	pool := newDeltaPool(lm, sm, r.cfg.seed+3)

	n := 0
	env, err := setup(r, func() (*liveEnv, error) {
		n++
		srv, err := startServer(service.Config{
			DataDir:       filepath.Join(r.cfg.work, fmt.Sprintf("live-append-%d", n)),
			EnableTracing: r.traced,
		})
		if err != nil {
			return nil, err
		}
		e := &liveEnv{srv: srv, parents: make(map[string]*liveParent)}
		for _, in := range []*input{ladderIn, smallIn} {
			id, err := srv.upload(in.key, in.tsv)
			if err == nil {
				_, err = srv.runHTTPJob(false, id, in.params, liveWorkers, false, false)
			}
			if err != nil {
				srv.stop()
				return nil, err
			}
			p := &liveParent{in: in, id: id}
			if in == ladderIn {
				e.parents[deltaLadderConds], e.parents[deltaLadderGenes] = p, p
			} else {
				e.parents[deltaSmallConds], e.parents[deltaSmallGenes] = p, p
			}
		}
		return e, nil
	}, func(e *liveEnv) { e.srv.stop() })
	if err != nil {
		return err
	}
	defer env.srv.stop()

	before, err := env.srv.metrics()
	if err != nil {
		return err
	}
	storeBefore, totalBefore := storeBytes(env.srv.dir)
	rng = rand.New(rand.NewSource(r.cfg.seed*37 + 5))
	var (
		httpErrs     int
		cleanAppends int
		cleanOK      int
		geneAppends  int
		geneOK       int
		lineage      int
		incremental  int
		reused       int
		mined        int
		fallbacks    = make(map[string]int)
		repairGenes  int
		earlyDiffs   int
	)
	deadline := r.beginWindow()
	for it := 0; time.Now().Before(deadline); it++ {
		kind := liveBlock[it%len(liveBlock)]
		parent := env.parents[kind]
		d := pool.named(kind, rng.Intn(poolSize), it, parent.in.m)
		view, err := liveIteration(r, env.srv, parent, d, it, &earlyDiffs)
		if err != nil {
			r.fail("live-append iteration %d (%s): %v", it, kind, err)
			if isHTTPError(err) {
				httpErrs++
			}
			continue
		}
		lineage++
		inc := view.Incremental
		if d.axis == service.DeltaAxisConditions {
			repairGenes += parent.in.m.Rows()
		}
		if inc != nil && inc.Incremental {
			incremental++
			reused += inc.SubtreesReused
			mined += inc.SubtreesMined
		} else if inc != nil {
			fallbacks[inc.Fallback]++
		} else {
			fallbacks["(no incremental report)"]++
		}
		switch kind {
		case deltaLadderConds:
			cleanAppends++
			if inc != nil && inc.Incremental && inc.SubtreesReused == ladderBase && inc.SubtreesMined == ladderRungs+2 {
				cleanOK++
			}
		case deltaLadderGenes, deltaSmallGenes:
			geneAppends++
			if inc != nil && !inc.Incremental && inc.Fallback == "gene axis changed" {
				geneOK++
			}
		}
	}
	r.endWindow()

	after, err := env.srv.metrics()
	if err != nil {
		return err
	}
	jobs := len(r.jobs)
	serviceCounters(r, before, after, jobs, env.srv.dir, storeBefore, totalBefore)
	r.counters["service.http_errors"] = float64(httpErrs)
	r.counters["service.fallbacks"] = metricDelta(before, after, "regserver_incremental_fallbacks_total")
	if lineage > 0 {
		r.counters["service.incremental_frac"] = float64(incremental) / float64(lineage)
	}
	if reused+mined > 0 {
		r.counters["core.subtrees_reused_frac"] = float64(reused) / float64(reused+mined)
	}
	if repairGenes > 0 {
		r.counters["rwave.repaired_frac"] = metricDelta(before, after, "regserver_model_repairs_total") / float64(repairGenes)
	}
	r.counters["service.diff_early"] = float64(earlyDiffs)
	r.check("live-append diffs find the child's result as soon as its stream has ended",
		earlyDiffs == 0, "%d of %d diffs had to wait for the result to be cached", earlyDiffs, lineage)
	r.check("live-append clean condition deltas take the incremental path with 24/32 subtrees reused",
		cleanOK == cleanAppends, "%d of %d clean deltas reused %d and re-mined %d subtrees", cleanOK, cleanAppends, ladderBase, ladderRungs+2)
	r.check("live-append gene-axis deltas fall back with the named reason \"gene axis changed\"",
		geneOK == geneAppends, "%d of %d gene-axis deltas reported it; outcomes over all deltas: %d incremental, fallbacks %v",
		geneOK, geneAppends, incremental, fallbacks)
	return nil
}

// liveIteration runs append → mine child → stream → diff → delete and
// returns the child job's view. It counts in early each diff that found no
// cached child result although the child's stream had ended.
func liveIteration(r *recorder, srv *server, parent *liveParent, d delta, it int, early *int) (service.JobView, error) {
	tsv := tsvOf(d.m)
	var child string
	dur, node, err := timed(r.traced, "http.append", func() (err error) {
		child, err = srv.appendDelta(parent.id, d.axis, tsv)
		return err
	})
	if err != nil {
		return service.JobView{}, err
	}
	r.traceOp(node)
	r.op("service.append_s", dur)
	r.addIngest(dur)
	if r.traced {
		probeAppend(r, parent.in.m, d)
	}

	j, err := srv.runHTTPJob(r.traced, child, parent.in.params, liveWorkers, false, it%8 == 0)
	if err != nil {
		return service.JobView{}, err
	}
	rec := jobRecord{kind: d.kind, latency: j.latency, ttfc: j.ttfc, cached: j.view.Cached, tree: j.tree}
	if j.stream.stats != nil {
		rec.stats = *j.stream.stats
	}
	r.addJob(rec)
	pm := parent.in.m
	r.refs.expect(expectation{
		what: fmt.Sprintf("live-append %s child job %s", d.kind, j.view.ID),
		spec: refSpec{
			key:    fmt.Sprintf("%s|%s|%d", parent.in.key, d.kind, d.pool),
			params: parent.in.params,
			matrix: func() *matrix.Matrix {
				m, err := d.grow(pm)
				if err != nil {
					panic(err) // the service grew the same delta without error
				}
				return m
			},
		},
		form: formStream, got: j.stream.digest, stats: j.stream.stats, sample: j.stream.sample,
	})

	view, err := srv.job(j.view.ID)
	if err != nil {
		return service.JobView{}, err
	}
	raw := bodies.Get().(*bytes.Buffer)
	raw.Reset()
	defer bodies.Put(raw)
	var retries int
	dur, node, err = timed(r.traced, "http.diff", func() (err error) {
		retries, err = srv.diffSettled(child, parent.id, raw)
		return err
	})
	if retries > 0 {
		*early++
	}
	if err != nil {
		return service.JobView{}, err
	}
	r.traceOp(node)
	r.op("service.diff_s", dur)
	var diff diffCounts
	if err := json.Unmarshal(raw.Bytes(), &diff); err != nil {
		return service.JobView{}, fmt.Errorf("diff: %w", err)
	}
	if got := len(diff.Added) + len(diff.Grown) + diff.Unchanged; got != j.stream.n || diff.Schema != service.DiffSchemaID {
		r.mismatch(fmt.Sprintf("live-append diff %s/%s (schema %q) covers %d child clusters, stream had %d",
			child, parent.id, diff.Schema, got, j.stream.n))
	}
	dur, node, err = timed(r.traced, "http.delete", func() error { return srv.deleteDataset(child) })
	if err != nil {
		return service.JobView{}, err
	}
	r.traceOp(node)
	r.op("service.delete_s", dur)
	return view, nil
}

// probeAppend times the matrix layer's share of an append from outside the
// server: parse the delta, grow the parent, hash the child. Traced passes
// only, between jobs.
func probeAppend(r *recorder, parent *matrix.Matrix, d delta) {
	tsv := tsvOf(d.m)
	t0 := time.Now()
	dm, err := matrix.ReadTSV(bytes.NewReader(tsv))
	if err != nil {
		return
	}
	dd := delta{kind: d.kind, axis: d.axis, m: dm}
	grown, err := dd.grow(parent)
	if err != nil {
		return
	}
	grown.Hash()
	r.value("matrix.append_s", time.Since(t0).Seconds())
}

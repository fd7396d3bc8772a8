package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"regcluster/internal/dist"
	"regcluster/internal/matrix"
	"regcluster/internal/service"
)

// distSchedule is the repeating job pattern of dist-lease: the two
// batch-paper datasets, with every fourth job on a freshly uploaded copy of
// the Figure 7 dataset (new gene names, so a new content address the
// workers must replicate and hash-verify before mining).
var distSchedule = []string{"fig7", "yeast", "fig7", slotFresh}

const distWorkers = 2

type distEnv struct {
	srv     *server
	ids     map[string]string // input key → dataset id
	workers []*dist.Worker
	cancel  context.CancelFunc
	done    sync.WaitGroup
}

func (e *distEnv) stop() {
	e.cancel()
	e.done.Wait()
	e.srv.stop()
}

// distLease mines through a coordinator-mode server (no in-process mining
// loops) with two in-process dist.Workers holding one lease slot each. The
// result cache is disabled so every job goes through the lease path.
func distLease(r *recorder) error {
	sz := scaleOf(r.cfg.opt)
	fig, yst := paperInputs(sz, rand.New(rand.NewSource(r.cfg.seed)))
	inputs := map[string]*input{"fig7": fig, "yeast": yst}

	env, err := setup(r, func() (*distEnv, error) { return startDist(r.traced, inputs) }, (*distEnv).stop)
	if err != nil {
		return err
	}
	defer env.stop()

	before, err := env.srv.metrics()
	if err != nil {
		return err
	}
	completed0, replicated0 := make([]int64, len(env.workers)), int64(0)
	for i, w := range env.workers {
		completed0[i] = w.Completed.Load()
		replicated0 += w.Replicated.Load()
	}
	var httpErrs, fresh int
	deadline := r.beginWindow()
	for i := 0; time.Now().Before(deadline); i++ {
		kind := distSchedule[i%len(distSchedule)]
		if err := distJob(r, env, inputs, kind, &fresh); err != nil {
			r.fail("dist-lease job %d (%s): %v", i, kind, err)
			if isHTTPError(err) {
				httpErrs++
			}
		}
	}
	r.endWindow()

	after, err := env.srv.metrics()
	if err != nil {
		return err
	}
	serviceCounters(r, before, after, len(r.jobs), "", 0, 0)
	r.counters["service.http_errors"] = float64(httpErrs)
	d := func(name string) float64 { return metricDelta(before, after, name) }
	jobs := float64(max(len(r.jobs), 1))
	issued, reassigned, done := d("regserver_leases_issued_total"), d("regserver_leases_reassigned_total"), d("regserver_leases_completed_total")
	r.counters["dist.leases_per_job"] = issued / jobs
	r.counters["dist.reassigned"] = reassigned
	if issued > 0 {
		r.counters["dist.completed_frac"] = done / issued
	}
	var total, least int64 = 0, -1
	var replicated int64
	for i, w := range env.workers {
		c := w.Completed.Load() - completed0[i]
		total += c
		if least < 0 || c < least {
			least = c
		}
		replicated += w.Replicated.Load()
	}
	if total > 0 {
		r.counters["dist.worker_share_min"] = float64(least) / float64(total)
	}
	r.counters["dist.replicated"] = float64(replicated - replicated0)
	r.check("dist-lease has zero lease reassignments", reassigned == 0, "%.0f reassigned of %.0f leases issued", reassigned, issued)
	return nil
}

// startDist boots the coordinator, registers both workers and uploads the
// base datasets.
func startDist(traced bool, inputs map[string]*input) (*distEnv, error) {
	srv, err := startServer(service.Config{
		Mode:             "coordinator",
		DistLocalWorkers: -1,
		CacheEntries:     -1,
		EnableTracing:    traced,
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	e := &distEnv{srv: srv, ids: make(map[string]string), cancel: cancel}
	exited := make(chan error, distWorkers) // each Run returns once
	for i := 0; i < distWorkers; i++ {
		w := dist.NewWorker(dist.WorkerConfig{
			Coordinator: srv.ts.URL,
			Name:        fmt.Sprintf("bench-worker-%d", i),
			Slots:       1,
			Client:      srv.client,
		})
		e.workers = append(e.workers, w)
		e.done.Add(1)
		go func() {
			defer e.done.Done()
			exited <- w.Run(ctx)
		}()
	}
	// dist.Worker has no ready signal; poll its registration.
	deadline := time.Now().Add(30 * time.Second)
	for _, w := range e.workers {
		for w.ID() == "" {
			select {
			case err := <-exited:
				e.stop()
				return nil, fmt.Errorf("worker exited before registering: %v", err)
			default:
			}
			if time.Now().After(deadline) {
				e.stop()
				return nil, fmt.Errorf("workers did not register within 30s")
			}
			time.Sleep(time.Millisecond)
		}
	}
	for _, key := range []string{"fig7", "yeast"} {
		id, err := srv.upload(key, inputs[key].tsv)
		if err != nil {
			e.stop()
			return nil, err
		}
		e.ids[key] = id
	}
	return e, nil
}

// distJob mines one job through the lease path; a fresh job first uploads
// a renamed copy of the Figure 7 dataset and deletes it afterwards.
func distJob(r *recorder, env *distEnv, inputs map[string]*input, kind string, fresh *int) error {
	in, id, prefix := inputs["fig7"], "", ""
	if kind == slotFresh {
		prefix = fmt.Sprintf("d%d-", *fresh)
		*fresh++
		tsv := prefixGenes(in.tsv, prefix)
		d, node, err := timed(r.traced, "http.upload", func() (err error) {
			id, err = env.srv.upload("fig7-"+prefix, tsv)
			return err
		})
		if err != nil {
			return err
		}
		r.traceOp(node)
		r.op("service.upload_s", d)
		r.addIngest(d)
		if r.traced {
			probeIngest(r, tsv)
		}
	} else {
		in, id = inputs[kind], env.ids[kind]
	}
	j, err := env.srv.runHTTPJob(r.traced, id, in.params, 1, false, kind == slotFresh)
	if err != nil {
		return err
	}
	rec := jobRecord{kind: kind, latency: j.latency, ttfc: j.ttfc, cached: j.view.Cached, tree: j.tree}
	if j.stream.stats != nil {
		rec.stats = *j.stream.stats
	}
	r.addJob(rec)
	r.refs.expect(expectation{
		what: fmt.Sprintf("dist-lease %s job %s", kind, j.view.ID),
		spec: refSpec{key: in.key, params: in.params, matrix: func() *matrix.Matrix {
			if prefix == "" {
				return in.m
			}
			return renamedGenes(in.m, prefix)
		}},
		form: formStream, got: j.stream.digest, stats: j.stream.stats, sample: j.stream.sample,
	})
	if kind == slotFresh {
		d, node, err := timed(r.traced, "http.delete", func() error { return env.srv.deleteDataset(id) })
		if err != nil {
			return err
		}
		r.traceOp(node)
		r.op("service.delete_s", d)
	}
	return nil
}

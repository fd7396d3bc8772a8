package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"regcluster/internal/core"
	"regcluster/internal/matrix"
	"regcluster/internal/report"
	"regcluster/internal/service"
)

// serve-mix slot kinds. Each block of serveBlock submissions per client
// holds a fixed count of each, in a seeded order, so the mix does not drift
// with the seed: 8 exact repeats (result-cache hits), 7 ε/MinG variants of a
// γ-scheme the client built recently (model-cache hits), 3 jobs on a new
// γ-scheme and 2 fresh uploads that are mined and then deleted (both cold).
// Repeats are 40% rather than half so that job_p50_s falls inside the
// mining jobs instead of on the boundary between hits and mines.
const (
	slotRepeat  = "repeat"
	slotVariant = "variant"
	slotCold    = "cold"
	slotFresh   = "fresh"
)

var serveBlock = func() []string {
	var b []string
	for _, s := range []struct {
		kind string
		n    int
	}{{slotRepeat, 8}, {slotVariant, 7}, {slotCold, 3}, {slotFresh, 2}} {
		for i := 0; i < s.n; i++ {
			b = append(b, s.kind)
		}
	}
	return b
}()

const (
	serveClients = 2
	serveWorkers = 1
	// Repeats draw from a client's last recentKeys results and variants from
	// its last recentSchemes γ-schemes, so the working set of both clients
	// stays far inside the default result cache (256) and model cache (16).
	recentKeys    = 32
	recentSchemes = 3
	freshPool     = 3
)

// serveDataset is one base dataset uploaded at set-up.
type serveDataset struct {
	in *input
	id string
}

// serveKey is one (dataset, params) a client has mined.
type serveKey struct {
	ds *serveDataset
	p  core.Params
}

// scheme is one (dataset, γ) — one model-cache entry.
type scheme struct {
	ds       *serveDataset
	gamma    float64
	variants int
}

// serveClient is one closed-loop client. Repeats, variants and cold jobs
// each alternate between the two base datasets, so the share of work on
// each is the same in every run; the seed picks the order and which recent
// result or γ-scheme a slot reuses.
type serveClient struct {
	id      int
	rng     *rand.Rand
	order   []string
	recent  []serveKey
	schemes []*scheme
	colds   map[*serveDataset]int
	counts  map[string]int // slots of each kind run so far
	fresh   int
}

// pick returns a random element of xs whose dataset is want, or of xs when
// none is.
func pick[T any](rng *rand.Rand, xs []T, ds func(T) *serveDataset, want *serveDataset) T {
	var match []T
	for _, x := range xs {
		if ds(x) == want {
			match = append(match, x)
		}
	}
	if len(match) == 0 {
		match = xs
	}
	return match[rng.Intn(len(match))]
}

// serveEnv is one set-up: the server and its two base datasets.
type serveEnv struct {
	srv  *server
	base []*serveDataset
}

func serveMix(r *recorder) error {
	sz := scaleOf(r.cfg.opt)
	rng := rand.New(rand.NewSource(r.cfg.seed))
	ym, yp := yeast(sz.yeastGenes)
	sm, sp := fig7(sz.smallGenes, sz.smallConds, 30, smallSeed)
	base := []*input{newInput("yeast", permuteGenes(ym, rng), yp), newInput("small", permuteGenes(sm, rng), sp)}
	var pool []*input
	for k := 0; k < freshPool; k++ {
		m, p := fig7(sz.smallGenes, sz.smallConds, 30, freshSeed+int64(k))
		pool = append(pool, newInput(fmt.Sprintf("fresh%d", k), permuteGenes(m, rng), p))
	}

	n := 0
	env, err := setup(r, func() (*serveEnv, error) {
		n++
		srv, err := startServer(service.Config{
			DataDir:       filepath.Join(r.cfg.work, fmt.Sprintf("serve-mix-%d", n)),
			EnableTracing: r.traced,
		})
		if err != nil {
			return nil, err
		}
		e := &serveEnv{srv: srv}
		for _, in := range base {
			id, err := srv.upload(in.key, in.tsv)
			if err != nil {
				srv.stop()
				return nil, err
			}
			e.base = append(e.base, &serveDataset{in: in, id: id})
		}
		return e, nil
	}, func(e *serveEnv) { e.srv.stop() })
	if err != nil {
		return err
	}
	defer env.srv.stop()

	before, err := env.srv.metrics()
	if err != nil {
		return err
	}
	storeBefore, totalBefore := storeBytes(env.srv.dir)
	deadline := r.beginWindow()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		repeats  int
		httpErrs int
		seen     = make(map[string]bool) // reference keys already sampled
	)
	for c := 0; c < serveClients; c++ {
		cl := &serveClient{id: c, rng: rand.New(rand.NewSource(r.cfg.seed*31 + int64(c))),
			colds: make(map[*serveDataset]int), counts: make(map[string]int)}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				kind, err := cl.next(r, env, pool, seen, &mu)
				if err != nil {
					r.fail("serve-mix client %d job %d (%s): %v", cl.id, i, kind, err)
					if isHTTPError(err) {
						mu.Lock()
						httpErrs++
						mu.Unlock()
					}
					continue
				}
				if kind == slotRepeat {
					mu.Lock()
					repeats++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	r.endWindow()

	after, err := env.srv.metrics()
	if err != nil {
		return err
	}
	serviceCounters(r, before, after, len(r.jobs), env.srv.dir, storeBefore, totalBefore)
	r.counters["service.http_errors"] = float64(httpErrs)
	hits := int(metricDelta(before, after, "regcluster_cache_hits_total"))
	r.check("serve-mix result-cache hits equal scheduled repeats", hits == repeats,
		"%d hits, %d repeats scheduled", hits, repeats)
	var wrong int
	for _, j := range r.jobs {
		if j.cached != (j.kind == slotRepeat) {
			wrong++
		}
	}
	r.check("serve-mix job views report cached exactly on repeats", wrong == 0, "%d of %d jobs disagree", wrong, len(r.jobs))
	return nil
}

// next runs the client's next scheduled submission and returns its kind.
func (cl *serveClient) next(r *recorder, env *serveEnv, pool []*input, seen map[string]bool, mu *sync.Mutex) (string, error) {
	if len(cl.order) == 0 {
		cl.order = append([]string(nil), serveBlock...)
		cl.rng.Shuffle(len(cl.order), func(i, j int) { cl.order[i], cl.order[j] = cl.order[j], cl.order[i] })
	}
	kind := cl.order[0]
	cl.order = cl.order[1:]
	if kind == slotRepeat && len(cl.recent) == 0 || kind == slotVariant && len(cl.schemes) == 0 {
		kind = slotCold // nothing to repeat or vary yet
	}
	if kind == slotFresh {
		return kind, cl.freshJob(r, env, pool)
	}

	want := env.base[cl.counts[kind]%len(env.base)]
	cl.counts[kind]++
	var k serveKey
	switch kind {
	case slotRepeat:
		k = pick(cl.rng, cl.recent, func(k serveKey) *serveDataset { return k.ds }, want)
	case slotVariant:
		s := pick(cl.rng, cl.schemes, func(s *scheme) *serveDataset { return s.ds }, want)
		s.variants++
		k = serveKey{ds: s.ds, p: s.ds.in.params}
		k.p.Gamma = s.gamma
		k.p.Epsilon *= 1 + 0.04*float64(s.variants)
		k.p.MinG += s.variants % 2
	case slotCold:
		// A γ no other client uses: client c takes every other step.
		ds := want
		step := 2*cl.colds[ds] + cl.id + 1
		cl.colds[ds]++
		k = serveKey{ds: ds, p: ds.in.params}
		k.p.Gamma *= 1 + 0.002*float64(step)
		cl.schemes = append(cl.schemes, &scheme{ds: ds, gamma: k.p.Gamma})
		if len(cl.schemes) > recentSchemes {
			cl.schemes = cl.schemes[1:]
		}
	}
	in := k.ds.in
	refKey := fmt.Sprintf("%s|%+v", in.key, k.p)
	mu.Lock()
	keep := !seen[refKey]
	seen[refKey] = true
	mu.Unlock()
	err := serveJob(r, env.srv, kind, k.ds.id, refSpec{key: refKey, matrix: func() *matrix.Matrix { return in.m }, params: k.p}, keep)
	if err == nil && kind != slotRepeat {
		cl.recent = append(cl.recent, k)
		if len(cl.recent) > recentKeys {
			cl.recent = cl.recent[1:]
		}
	}
	return kind, err
}

// freshJob uploads a renamed copy of a pool dataset, mines it, and deletes it.
func (cl *serveClient) freshJob(r *recorder, env *serveEnv, pool []*input) error {
	in := pool[cl.fresh%len(pool)]
	prefix := fmt.Sprintf("f%d.%d-", cl.id, cl.fresh)
	cl.fresh++
	tsv := prefixGenes(in.tsv, prefix)
	var id string
	d, node, err := timed(r.traced, "http.upload", func() (err error) {
		id, err = env.srv.upload(in.key+"-"+prefix, tsv)
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
	spec := refSpec{key: in.key + "|" + fmt.Sprintf("%+v", in.params), params: in.params,
		matrix: func() *matrix.Matrix { return renamedGenes(in.m, prefix) }}
	if err := serveJob(r, env.srv, slotFresh, id, spec, true); err != nil {
		return err
	}
	d, node, err = timed(r.traced, "http.delete", func() error { return env.srv.deleteDataset(id) })
	if err != nil {
		return err
	}
	r.traceOp(node)
	r.op("service.delete_s", d)
	return nil
}

// serveJob runs submit → stream → result and queues both outputs for the
// reference gate.
func serveJob(r *recorder, srv *server, kind, dataset string, spec refSpec, keepSample bool) error {
	j, err := srv.runHTTPJob(r.traced, dataset, spec.params, serveWorkers, true, keepSample)
	if err != nil {
		return err
	}
	rec := jobRecord{kind: kind, latency: j.latency, ttfc: j.ttfc, cached: j.view.Cached, tree: j.tree}
	if j.stream.stats != nil {
		rec.stats = *j.stream.stats
	}
	if r.traced {
		rec.layer = map[string]float64{"report.bytes": float64(len(j.doc))}
		// Probe: time the render the result handler runs, on the same document.
		if doc, err := report.Read(bytes.NewReader(j.doc)); err == nil {
			t0 := time.Now()
			doc.Write(io.Discard)
			rec.layer["report.render_s"] = time.Since(t0).Seconds()
		}
	}
	r.addJob(rec)
	what := fmt.Sprintf("serve-mix %s job %s", kind, j.view.ID)
	r.refs.expect(expectation{what: what, spec: spec, form: formStream, got: j.stream.digest,
		stats: j.stream.stats, sample: j.stream.sample})
	r.refs.expect(expectation{what: what, spec: spec, form: formDoc, got: digest(j.doc)})
	return nil
}

// prefixGenes rewrites a TSV so every gene name carries prefix.
func prefixGenes(tsv []byte, prefix string) []byte {
	out := make([]byte, 0, len(tsv)+len(prefix)*bytes.Count(tsv, []byte{'\n'}))
	header := bytes.IndexByte(tsv, '\n') + 1
	out = append(out, tsv[:header]...)
	for rest := tsv[header:]; len(rest) > 0; {
		line := rest
		if i := bytes.IndexByte(rest, '\n'); i >= 0 {
			line, rest = rest[:i+1], rest[i+1:]
		} else {
			rest = nil
		}
		out = append(out, prefix...)
		out = append(out, line...)
	}
	return out
}

// probeIngest times the matrix layer on an uploaded payload from outside the
// server: the same ReadTSV and Hash calls the upload handler makes. Traced
// passes only; the probe runs between jobs, never inside one.
func probeIngest(r *recorder, tsv []byte) {
	t0 := time.Now()
	m, err := matrix.ReadTSV(bytes.NewReader(tsv))
	parse := time.Since(t0).Seconds()
	if err != nil {
		return
	}
	t1 := time.Now()
	m.Hash()
	r.value("matrix.parse_s", parse)
	r.value("matrix.hash_s", time.Since(t1).Seconds())
	r.value("matrix.mb_per_s", float64(len(tsv))/1e6/parse)
}

package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"regcluster/internal/core"
	"regcluster/internal/matrix"
	"regcluster/internal/report"
)

// Output forms a job's bytes are compared in.
const (
	formStream = "stream" // NDJSON cluster lines, as GET /jobs/{id}/stream sends them
	formDoc    = "doc"    // a regcluster.result/v1 document, as report.Document.Write renders it
)

// refSpec identifies the reference a job's output must equal: a sequential
// core.Mine of the matrix the job saw. key names the mined values and
// parameters, so jobs whose matrices differ only in gene or condition names
// share one reference mine and differ only in rendering.
type refSpec struct {
	key    string
	matrix func() *matrix.Matrix
	params core.Params
}

// expectation is one output awaiting the gate.
type expectation struct {
	what   string
	spec   refSpec
	form   string
	got    string                // sha256 of the bytes the program returned
	stats  *core.Stats           // settled Stats the program reported, when it did
	sample []report.NamedCluster // clusters re-validated with CheckBicluster
}

// refGate holds expectations during the measured window and checks them
// afterwards, so reference mining never runs inside a timed phase.
type refGate struct {
	corrupt bool // tests only: alter one reference to prove the gate fails runs

	mu   sync.Mutex
	exps []expectation
}

func newRefGate(corrupt bool) *refGate { return &refGate{corrupt: corrupt} }

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

func (g *refGate) expect(e expectation) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.exps = append(g.exps, e)
}

// render returns the bytes a correct program sends for res in the given form.
func render(m *matrix.Matrix, p core.Params, res *core.Result, form string) []byte {
	var buf bytes.Buffer
	if form == formDoc {
		report.FromResult(m, p, res).Write(&buf)
		return buf.Bytes()
	}
	enc := json.NewEncoder(&buf)
	for _, b := range res.Clusters {
		enc.Encode(report.Named(m, b))
	}
	return buf.Bytes()
}

// verify mines every distinct reference (two at a time) and compares each
// expectation against it, returning one message per mismatch.
func (g *refGate) verify() []string {
	g.mu.Lock()
	exps := g.exps
	g.exps = nil
	g.mu.Unlock()

	refs := make(map[string]*core.Result)
	var keys []string
	specs := make(map[string]refSpec)
	for _, e := range exps {
		if _, ok := specs[e.spec.key]; !ok {
			specs[e.spec.key] = e.spec
			keys = append(keys, e.spec.key)
		}
	}
	errs := make(map[string]error)
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := make(chan string)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				s := specs[k]
				res, err := core.Mine(s.matrix(), s.params)
				mu.Lock()
				refs[k], errs[k] = res, err
				mu.Unlock()
			}
		}()
	}
	for _, k := range keys {
		next <- k
	}
	close(next)
	wg.Wait()

	var bad []string
	for i, e := range exps {
		if err := errs[e.spec.key]; err != nil {
			bad = append(bad, fmt.Sprintf("%s: reference mine: %v", e.what, err))
			continue
		}
		ref := refs[e.spec.key]
		m := e.spec.matrix()
		want := digest(render(m, e.spec.params, ref, e.form))
		if g.corrupt && i == 0 {
			want = digest([]byte("corrupted " + want))
		}
		if e.got != want {
			bad = append(bad, fmt.Sprintf("%s: %s differs from the sequential reference (%d clusters)", e.what, e.form, len(ref.Clusters)))
			continue
		}
		if e.stats != nil && *e.stats != ref.Stats {
			bad = append(bad, fmt.Sprintf("%s: stats %+v differ from the reference %+v", e.what, *e.stats, ref.Stats))
			continue
		}
		if err := checkSample(m, e.spec.params, e.sample); err != nil {
			bad = append(bad, fmt.Sprintf("%s: %v", e.what, err))
		}
	}
	return bad
}

// checkSample resolves named clusters back onto the matrix and re-validates
// each against Definition 3.2 with core.CheckBicluster.
func checkSample(m *matrix.Matrix, p core.Params, sample []report.NamedCluster) error {
	if len(sample) == 0 {
		return nil
	}
	doc := report.Document{Schema: report.SchemaID, Params: p, Clusters: sample}
	bs, err := doc.Resolve(m)
	if err != nil {
		return fmt.Errorf("resolve sample: %w", err)
	}
	for _, b := range bs {
		if err := core.CheckBicluster(m, p, b); err != nil {
			return fmt.Errorf("CheckBicluster: %w", err)
		}
	}
	return nil
}

// sampleOf picks up to three clusters spread over a stream for CheckBicluster.
func sampleOf(cs []report.NamedCluster) []report.NamedCluster {
	if len(cs) <= 3 {
		return cs
	}
	return []report.NamedCluster{cs[0], cs[len(cs)/2], cs[len(cs)-1]}
}

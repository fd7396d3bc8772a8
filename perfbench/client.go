package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"regcluster/internal/core"
	"regcluster/internal/obs"
	"regcluster/internal/report"
	"regcluster/internal/service"
)

// server is one service.Server on a loopback httptest listener, with the
// client the workload drives it through.
type server struct {
	srv    *service.Server
	ts     *httptest.Server
	client *http.Client
	dir    string // DataDir; empty for an in-memory server
}

// startServer boots a server. dataDir, when set, is created fresh.
func startServer(cfg service.Config) (*server, error) {
	if cfg.DataDir != "" {
		if err := os.RemoveAll(cfg.DataDir); err != nil {
			return nil, err
		}
	}
	cfg.Logf = func(string, ...any) {} // diagnostics are formatted but not printed
	srv, err := service.Open(cfg)
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	return &server{srv: srv, ts: ts, client: ts.Client(), dir: cfg.DataDir}, nil
}

// stop drains and closes the server and removes its data directory.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
	s.ts.Close()
	s.srv.Close()
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// httpError is a response with an unexpected status.
type httpError struct {
	op     string
	status int
	body   string
}

func (e *httpError) Error() string {
	return fmt.Sprintf("%s: HTTP %d: %s", e.op, e.status, strings.TrimSpace(e.body))
}

// do sends one request and decodes a JSON response into out (when non-nil),
// failing on any status other than want.
func (s *server) do(op, method, path string, body []byte, want int, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.ts.URL+path, rd)
	if err != nil {
		return fmt.Errorf("%s: %w", op, err)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return fmt.Errorf("%s: %w", op, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		b, _ := io.ReadAll(resp.Body)
		return &httpError{op, resp.StatusCode, string(b)}
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
	} else {
		err = json.NewDecoder(resp.Body).Decode(out)
	}
	if err != nil {
		return fmt.Errorf("%s: read response: %w", op, err)
	}
	return nil
}

// upload registers a dataset (201 for new content) and returns its id.
func (s *server) upload(name string, tsv []byte) (string, error) {
	var ds service.Dataset
	err := s.do("upload", http.MethodPost, "/datasets?name="+url.QueryEscape(name), tsv, http.StatusCreated, &ds)
	return ds.ID, err
}

// appendDelta grows parent by a delta TSV and returns the child's id.
func (s *server) appendDelta(parent, axis string, tsv []byte) (string, error) {
	var ds service.Dataset
	err := s.do("append", http.MethodPost, "/datasets/"+parent+"/append?axis="+axis, tsv, http.StatusCreated, &ds)
	return ds.ID, err
}

func (s *server) deleteDataset(id string) error {
	return s.do("delete", http.MethodDelete, "/datasets/"+id, nil, http.StatusNoContent, nil)
}

// submitBody mirrors the POST /jobs request.
type submitBody struct {
	Dataset string      `json:"dataset"`
	Params  core.Params `json:"params"`
	Workers int         `json:"workers"`
}

func (s *server) submit(dataset string, p core.Params, workers int) (service.JobView, error) {
	body, err := json.Marshal(submitBody{dataset, p, workers})
	if err != nil {
		return service.JobView{}, fmt.Errorf("submit: %w", err)
	}
	var v service.JobView
	err = s.do("submit", http.MethodPost, "/jobs", body, http.StatusAccepted, &v)
	return v, err
}

func (s *server) job(id string) (service.JobView, error) {
	var v service.JobView
	err := s.do("job", http.MethodGet, "/jobs/"+id, nil, http.StatusOK, &v)
	return v, err
}

// streamed is one job's NDJSON stream, parsed after the job was timed.
type streamed struct {
	digest string // sha256 of every cluster line, newline-terminated, as sent
	n      int
	sample []report.NamedCluster
	stats  *core.Stats
}

// summaryLine is the final NDJSON line of a stream.
type summaryLine struct {
	Done   bool        `json:"done"`
	Status string      `json:"status"`
	Error  string      `json:"error"`
	Stats  *core.Stats `json:"stats"`
}

// bodies recycles the buffers that large response bodies (cluster streams,
// diff documents) are read into, so the client allocates little per job.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// stream reads GET /jobs/{id}/stream to its end into buf and notes when the
// first line arrived. It does no per-line work while the job runs, so
// client-side parsing and hashing stay out of the job's latency;
// parseStream does that afterwards.
func (s *server) stream(id string, buf *bytes.Buffer) (first time.Time, err error) {
	resp, err := s.client.Get(s.ts.URL + "/jobs/" + id + "/stream")
	if err != nil {
		return first, fmt.Errorf("stream: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return first, &httpError{"stream", resp.StatusCode, string(b)}
	}
	chunk := make([]byte, 64<<10)
	for {
		n, err := resp.Body.Read(chunk)
		if first.IsZero() && bytes.IndexByte(chunk[:n], '\n') >= 0 {
			first = time.Now()
		}
		buf.Write(chunk[:n])
		if err == io.EOF {
			return first, nil
		}
		if err != nil {
			return first, fmt.Errorf("stream %s: %w", id, err)
		}
	}
}

// parseStream splits a stream body into its cluster lines and its summary
// line, requires the job to have ended done, and digests the cluster lines.
// With keepSample it decodes the first, middle and last cluster for the
// CheckBicluster sample.
func parseStream(id string, body []byte, keepSample bool) (*streamed, error) {
	cut := bytes.LastIndexByte(bytes.TrimSuffix(body, []byte{'\n'}), '\n') + 1
	clusters, summary := body[:cut], body[cut:]
	var sum summaryLine
	if !bytes.HasPrefix(summary, []byte(`{"done":`)) || json.Unmarshal(summary, &sum) != nil {
		return nil, fmt.Errorf("stream %s: ended before its summary line", id)
	}
	if sum.Status != string(service.StatusDone) {
		return nil, fmt.Errorf("stream %s: job ended %s: %s", id, sum.Status, sum.Error)
	}
	out := &streamed{digest: digest(clusters), n: bytes.Count(clusters, []byte{'\n'}), stats: sum.Stats}
	if keepSample && out.n > 0 {
		lines := bytes.Split(bytes.TrimSuffix(clusters, []byte{'\n'}), []byte{'\n'})
		for _, i := range []int{0, len(lines) / 2, len(lines) - 1} {
			var nc report.NamedCluster
			if err := json.Unmarshal(lines[i], &nc); err != nil {
				return nil, fmt.Errorf("stream %s: cluster line: %w", id, err)
			}
			out.sample = append(out.sample, nc)
		}
	}
	return out, nil
}

// get reads the body of a GET into buf, failing on any status but 200.
func (s *server) get(op, path string, buf *bytes.Buffer) error {
	resp, err := s.client.Get(s.ts.URL + path)
	if err != nil {
		return fmt.Errorf("%s: %w", op, err)
	}
	defer resp.Body.Close()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return fmt.Errorf("%s: %w", op, err)
	}
	if resp.StatusCode != http.StatusOK {
		return &httpError{op, resp.StatusCode, buf.String()}
	}
	return nil
}

// result fetches the settled regcluster.result/v1 document.
func (s *server) result(id string) ([]byte, error) {
	var buf bytes.Buffer
	err := s.get("result", "/jobs/"+id+"/result", &buf)
	return buf.Bytes(), err
}

// diff reads the regcluster.diff/v1 document of child against parent into buf.
func (s *server) diff(child, parent string, buf *bytes.Buffer) error {
	return s.get("diff", "/datasets/"+child+"/diff/"+parent, buf)
}

// diffSettleWait bounds how long diffSettled waits for a settled result.
const diffSettleWait = 2 * time.Second

// diffSettled reads the diff of a freshly mined child, retrying a 404 every
// millisecond for up to diffSettleWait, and returns how many retries it
// took. The server ends a job's stream before it caches the result the diff
// reads (jobManager.settle publishes done first), so a diff sent the moment
// the stream ends can race the cache. The caller counts such diffs and
// reports them, so the ordering shows without failing the run.
func (s *server) diffSettled(child, parent string, buf *bytes.Buffer) (retries int, err error) {
	deadline := time.Now().Add(diffSettleWait)
	for {
		buf.Reset()
		err = s.diff(child, parent, buf)
		var he *httpError
		if err == nil || !errors.As(err, &he) || he.status != http.StatusNotFound || time.Now().After(deadline) {
			return retries, err
		}
		retries++
		time.Sleep(time.Millisecond)
	}
}

// diffCounts is the part of a regcluster.diff/v1 document the benchmark
// checks; the clusters themselves are skipped, not decoded.
type diffCounts struct {
	Schema    string     `json:"schema"`
	Added     []struct{} `json:"added"`
	Removed   []struct{} `json:"removed"`
	Grown     []struct{} `json:"grown"`
	Unchanged int        `json:"unchanged"`
}

// trace fetches the server's span forest of a job (EnableTracing servers).
func (s *server) trace(id string) ([]*obs.Node, error) {
	var body struct {
		Trace []*obs.Node `json:"trace"`
	}
	err := s.do("trace", http.MethodGet, "/jobs/"+id+"/trace", nil, http.StatusOK, &body)
	return body.Trace, err
}

// metrics scrapes GET /metrics into series name → value. Labelled series
// keep their label set in the name.
func (s *server) metrics() (map[string]float64, error) {
	resp, err := s.client.Get(s.ts.URL + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// metricDelta returns after[name] − before[name].
func metricDelta(before, after map[string]float64, name string) float64 {
	return after[name] - before[name]
}

// dirSize sums the sizes of the regular files under dir whose path contains
// sub (every file when sub is empty).
func dirSize(dir, sub string) int64 {
	var n int64
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() && strings.Contains(path, sub) {
			n += info.Size()
		}
		return nil
	})
	return n
}

// httpJob is one job over HTTP: submit, then the full cluster stream, then
// (optionally) the settled result document. The client spans land in ct.
type httpJob struct {
	view    service.JobView
	stream  *streamed
	doc     []byte
	latency float64
	ttfc    float64
	tree    *obs.Node
}

// runHTTPJob submits a job and reads it to completion, timing it from the
// submit request to the last byte of the stream (or of the result document
// when withResult is set). In traced passes it then fetches the server's
// span tree and grafts it under the client's job span.
func (s *server) runHTTPJob(traced bool, dataset string, p core.Params, workers int, withResult, keepSample bool) (*httpJob, error) {
	ct := startJob(traced)
	t0 := time.Now()
	sp := ct.span("http.submit")
	view, err := s.submit(dataset, p, workers)
	sp.End()
	if err != nil {
		return nil, err
	}
	body := bodies.Get().(*bytes.Buffer)
	body.Reset()
	defer bodies.Put(body)
	sp = ct.span("http.stream")
	first, err := s.stream(view.ID, body)
	sp.End()
	if err != nil {
		return nil, err
	}
	j := &httpJob{view: view, ttfc: -1}
	if withResult {
		sp = ct.span("http.result")
		j.doc, err = s.result(view.ID)
		sp.End()
		if err != nil {
			return nil, err
		}
	}
	j.latency = time.Since(t0).Seconds()
	ct.end()
	if j.stream, err = parseStream(view.ID, body.Bytes(), keepSample); err != nil {
		return nil, err
	}
	if j.stream.n > 0 {
		j.ttfc = first.Sub(t0).Seconds()
	}
	if ct != nil {
		nodes, err := s.trace(view.ID)
		if err != nil {
			return nil, err
		}
		j.tree = ct.finish(nodes, view.CreatedAt)
	}
	return j, nil
}

// timed runs fn as one operation span: a root of its own in traced passes.
func timed(traced bool, name string, fn func() error) (float64, *obs.Node, error) {
	var tr *obs.Tracer
	if traced {
		tr = obs.New()
	}
	sp := tr.Start(name)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0).Seconds()
	sp.End()
	var node *obs.Node
	if nodes := tr.Tree(); len(nodes) > 0 {
		node = nodes[0]
	}
	return d, node, err
}

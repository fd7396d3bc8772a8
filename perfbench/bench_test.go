package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"regcluster/internal/obs"
)

// resultLine is the JSON object a run prints last.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runTiny runs one workload at the tiny scale for about a second.
func runTiny(t *testing.T, workload, trace string, opt options) (int, string, resultLine) {
	t.Helper()
	opt.tiny = true
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace, "--work", t.TempDir()},
		&stdout, &stderr, opt)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v\nstdout:\n%s\nstderr:\n%s", workload, err, stdout.String(), stderr.String())
	}
	return code, stdout.String(), res
}

// TestEveryWorkloadPrintsEveryMetric runs each workload untraced and traced
// at the tiny scale: every end-to-end metric (and, traced, every per-layer
// metric) must print with its unit, and every output must match its
// reference.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	for _, w := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			code, out, res := runTiny(t, w, trace, options{})
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%s: exit %d, result %+v\n%s", w, trace, code, res, out)
			}
			defs := endToEnd
			if trace == "1" {
				defs = perLayer
				if !strings.Contains(out, "self time per layer:") || !strings.Contains(out, "tracing overhead") {
					t.Errorf("%s: traced run printed no self-time table or overhead:\n%s", w, out)
				}
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%s: %d metrics, want %d", w, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%s: metric %s = %+v, want a finite value in %s", w, trace, d.name, m, d.unit)
				}
			}
			for _, d := range endToEnd {
				if !strings.Contains(out, d.name) {
					t.Errorf("%s trace=%s: end-to-end table lacks %s", w, trace, d.name)
				}
			}
			if trace == "0" {
				for _, name := range []string{"job_p50_s", "jobs_per_s", "setup_s"} {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w, name, res.Metrics[name].Value)
					}
				}
			}
		}
	}
}

// TestCorruptedReferenceFailsTheRun proves the output gate is live: one
// deliberately altered reference must fail the run with a non-zero exit.
func TestCorruptedReferenceFailsTheRun(t *testing.T) {
	code, out, res := runTiny(t, "batch-paper", "0", options{corruptReference: true})
	if code != 1 || res.Correct || res.Failed < 1 {
		t.Fatalf("corrupted reference: exit %d, result %+v, want exit 1 and a failure\n%s", code, res, out)
	}
	if !strings.Contains(out, "differs from the sequential reference") {
		t.Errorf("the mismatch is not reported:\n%s", out)
	}
}

// TestBenchmarkJSONMatchesMetricTables holds BENCHMARK.json and the metric
// tables of this package in step.
func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	for _, c := range []struct {
		kind string
		got  []struct{ Name, Unit, Better string }
		want []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", c.kind, len(c.got), len(c.want))
			continue
		}
		for i, g := range c.got {
			if w := c.want[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", c.kind, i, g, w)
			}
		}
	}
}

// TestSelfTimesSumToWall pins the attribution rule: overlapping children
// split the instants they share, so self times always sum to the root.
func TestSelfTimesSumToWall(t *testing.T) {
	root := &obs.Node{Name: rootSpan, StartUS: 0, DurUS: 100, Children: []*obs.Node{
		{Name: "core.mine", StartUS: 10, DurUS: 80, Children: []*obs.Node{
			{Name: "subtree", StartUS: 10, DurUS: 40},
			{Name: "subtree", StartUS: 30, DurUS: 40},
		}},
		{Name: "report.render", StartUS: 90, DurUS: 20}, // clipped at the root's end
	}}
	st := selfTimes(root)
	want := map[string]float64{rootSpan: 10e-6, "core.mine": 20e-6, "subtree": 60e-6, "report.render": 10e-6}
	var sum float64
	for name, v := range st {
		sum += v
		if math.Abs(v-want[name]) > 1e-12 {
			t.Errorf("%s: %g, want %g", name, v, want[name])
		}
	}
	if math.Abs(sum-100e-6) > 1e-12 {
		t.Errorf("self times sum to %g, want the root's 100µs", sum)
	}
}

// TestTail pins the tail percentile rule: the highest percentile with at
// least ten samples above it.
func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if q, v := tail(xs); q != 90 || v != 90 {
		t.Errorf("tail of 1..100 = p%d %g, want p90 90", q, v)
	}
	if q, v := tail(xs[:5]); q != 100 || v != 5 {
		t.Errorf("tail of 1..5 = p%d %g, want p100 5", q, v)
	}
}

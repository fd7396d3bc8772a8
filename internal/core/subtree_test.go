package core

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"regcluster/internal/matrix"
	"regcluster/internal/rwave"
	"regcluster/internal/synthetic"
)

func subtreeTestMatrix(t *testing.T) (*matrix.Matrix, Params) {
	t.Helper()
	cfg := synthetic.Config{Genes: 110, Conds: 12, Clusters: 4, Seed: 11}
	mm, _, err := synthetic.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return mm, Params{MinG: 4, MinC: 4, Gamma: 0.08, Epsilon: 0.05}
}

// isolatedSource produces subtrees the way distributed workers do: each one
// mined in isolation (MineSubtreeFunc, uncapped), in reverse condition order
// — never the condition or the dispatch order — and shipped in batches of
// `batch` clusters, so one subtree arrives over several pushes.
type isolatedSource struct{ batch int }

func (s isolatedSource) Produce(run *Subtrees) func() {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	order := slices.Clone(run.Order)
	slices.Sort(order)
	slices.Reverse(order)
	go func() {
		defer close(done)
		for _, c := range order {
			var buf []SubtreeCluster
			st, err := MineSubtreeFunc(ctx, run.Matrix, run.Params, c, run.Models, func(sc SubtreeCluster) bool {
				if buf = append(buf, sc); len(buf) == s.batch {
					run.Push(c, buf)
					buf = buf[:0]
				}
				return true
			})
			if err != nil {
				return
			}
			run.Push(c, buf)
			run.Finish(c, st)
		}
	}()
	return func() {
		cancel()
		<-done
	}
}

// runCollect runs (m, p) with the given options, collecting the delivered
// clusters and snapshots; stopAfter > 0 stops the visitor after that many
// deliveries.
func runCollect(t *testing.T, m *matrix.Matrix, p Params, o Options, stopAfter int) ([]*Bicluster, []Checkpoint, Stats) {
	t.Helper()
	var got []*Bicluster
	var cks []Checkpoint
	o.Visit = func(b *Bicluster) bool {
		got = append(got, b)
		return stopAfter <= 0 || len(got) < stopAfter
	}
	if o.Checkpoint.EveryClusters > 0 {
		o.Checkpoint.OnCheckpoint = func(ck Checkpoint) { cks = append(cks, ck) }
	}
	res, err := Run(context.Background(), m, p, o)
	if err != nil {
		t.Fatal(err)
	}
	return got, cks, res.Stats
}

func clustersEqual(t *testing.T, want, got []*Bicluster) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("cluster count: want %d, got %d", len(want), len(got))
	}
	for i := range want {
		if want[i].Key() != got[i].Key() {
			t.Fatalf("cluster %d differs:\n want %s\n got  %s", i, want[i], got[i])
		}
	}
}

// The merger guarantee for remote sources: subtrees mined in isolation and
// arriving out of order, each over several pushes, merge to exactly the
// sequential miner's output — clusters and every Stats counter — with and
// without global caps.
func TestMergeSubtreePartialsMatchesMine(t *testing.T) {
	m, base := subtreeTestMatrix(t)
	ref, err := Mine(m, base)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Stats.Clusters < 50 {
		t.Fatalf("workload too small (%d clusters); test is weak", ref.Stats.Clusters)
	}
	cases := []struct {
		name string
		mut  func(*Params)
	}{
		{"uncapped", func(*Params) {}},
		{"node_cap", func(p *Params) { p.MaxNodes = ref.Stats.Nodes / 3 }},
		{"cluster_cap", func(p *Params) { p.MaxClusters = ref.Stats.Clusters / 2 }},
		{"both_caps", func(p *Params) { p.MaxNodes = ref.Stats.Nodes * 2 / 3; p.MaxClusters = ref.Stats.Clusters * 2 / 3 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := base
			tc.mut(&p)
			want, err := Mine(m, p)
			if err != nil {
				t.Fatal(err)
			}
			got, _, stats := runCollect(t, m, p, Options{Source: isolatedSource{batch: 3}}, 0)
			clustersEqual(t, want.Clusters, got)
			if !reflect.DeepEqual(want.Stats, stats) {
				t.Errorf("stats: want %+v, got %+v", want.Stats, stats)
			}
		})
	}
}

// A source filling subtrees out of order must produce the local pool's
// checkpoints at the same positions, and every one of them must resume —
// through the same source — to the uninterrupted run's suffix and Stats.
func TestSubtreeMergerResume(t *testing.T) {
	m, p := subtreeTestMatrix(t)
	src := isolatedSource{batch: 2}
	full, cks, fullStats := runCollect(t, m, p, Options{Source: src, Checkpoint: CheckpointConfig{EveryClusters: 7}}, 0)
	_, poolCks, _ := runCollect(t, m, p, Options{Workers: 4, Checkpoint: CheckpointConfig{EveryClusters: 7}}, 0)
	if len(cks) < 3 {
		t.Fatalf("only %d checkpoints emitted", len(cks))
	}
	if !reflect.DeepEqual(cks, poolCks) {
		t.Fatalf("checkpoint positions differ from the local pool's:\n got  %+v\n pool %+v", cks, poolCks)
	}
	for i := range cks {
		ck := cks[i]
		tail, _, stats := runCollect(t, m, p, Options{Source: src, Resume: &ck}, 0)
		clustersEqual(t, full[ck.Delivered():], tail)
		if !reflect.DeepEqual(fullStats, stats) {
			t.Errorf("resume from checkpoint %d: stats want %+v, got %+v", i, fullStats, stats)
		}
	}
}

// A visitor stop inside a subtree that arrived over several pushes must
// reproduce the sequential truncation exactly.
func TestSubtreeMergerVisitorStopMatchesMineFunc(t *testing.T) {
	m, p := subtreeTestMatrix(t)
	for _, stopAfter := range []int{1, 23, 40} {
		want, _, wantStats := runCollect(t, m, p, Options{Workers: 1}, stopAfter)
		if !wantStats.Truncated {
			t.Fatal("sequential visitor stop did not truncate; test is vacuous")
		}
		got, _, gotStats := runCollect(t, m, p, Options{Source: isolatedSource{batch: 2}}, stopAfter)
		clustersEqual(t, want, got)
		if !reflect.DeepEqual(wantStats, gotStats) {
			t.Errorf("stop after %d: stats want %+v, got %+v", stopAfter, wantStats, gotStats)
		}
	}
}

// failingSource fails the run without producing anything.
type failingSource struct{ err error }

func (s failingSource) Produce(run *Subtrees) func() {
	run.Fail(s.err)
	return func() {}
}

// A source failure must end the run with that error, not block the merger
// on subtrees that will never arrive.
func TestSourceFailEndsRun(t *testing.T) {
	m, p := subtreeTestMatrix(t)
	boom := errors.New("unit rejected")
	if _, err := Run(context.Background(), m, p, Options{Source: failingSource{boom}}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

// scriptSource runs a fixed sequence of pushes and finishes, then leaves
// every other subtree unproduced.
type scriptSource func(run *Subtrees)

func (s scriptSource) Produce(run *Subtrees) func() {
	s(run)
	return func() {}
}

// A source that breaks the Push/Finish contract fails the run with an error
// naming the fault, instead of corrupting the merge or blocking it on
// subtrees that will never settle.
func TestSubtreeMergerRejectsBadPartials(t *testing.T) {
	m, p := subtreeTestMatrix(t)
	one := []SubtreeCluster{{Cluster: &Bicluster{Chain: []int{0, 1}}, Node: 1}}
	cases := []struct {
		name   string
		script scriptSource
		want   string
	}{
		{"out_of_range_push", func(r *Subtrees) { r.Push(m.Cols(), one) }, "outside"},
		{"negative_finish", func(r *Subtrees) { r.Finish(-1, Stats{}) }, "outside"},
		{"abandoned_finish", func(r *Subtrees) { r.Finish(3, Stats{Truncated: true}) }, "abandoned"},
		{"duplicate_finish", func(r *Subtrees) { r.Finish(3, Stats{}); r.Finish(3, Stats{}) }, "finished twice"},
		{"push_after_finish", func(r *Subtrees) { r.Finish(0, Stats{}); r.Push(0, one) }, "after its finish"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(context.Background(), m, p, Options{Source: tc.script})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

func TestMineSubtreeFuncCancellation(t *testing.T) {
	m, p := subtreeTestMatrix(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := MineSubtreeFunc(ctx, m, p, 0, nil, func(SubtreeCluster) bool { return true })
	if err == nil {
		t.Fatal("cancelled context did not interrupt the subtree mine")
	}
}

// orderSource records the dispatch order a Run hands its source.
type orderSource struct {
	isolatedSource
	got *[]int
}

func (s orderSource) Produce(run *Subtrees) func() {
	*s.got = slices.Clone(run.Order)
	return s.isolatedSource.Produce(run)
}

// A source is handed the engine's largest-first dispatch order, minus the
// subtrees a resume snapshot has settled.
func TestSubtreeOrderMatchesEngineDispatch(t *testing.T) {
	m, p := subtreeTestMatrix(t)
	models, err := BuildModels(m, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := subtreeOrder(m, p, rwave.Kernels(models))
	if len(want) != m.Cols() {
		t.Errorf("order covers %d of %d conditions", len(want), m.Cols())
	}
	var got []int
	src := orderSource{isolatedSource{batch: 1}, &got}
	if _, err := Run(context.Background(), m, p, Options{Models: models, Source: src}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("source order %v != engine order %v", got, want)
	}
	resume := &Checkpoint{Version: CheckpointVersion, NextCond: 5}
	if _, err := Run(context.Background(), m, p, Options{Models: models, Source: src, Resume: resume}); err != nil {
		t.Fatal(err)
	}
	want = slices.DeleteFunc(want, func(c int) bool { return c < 5 })
	if !reflect.DeepEqual(want, got) {
		t.Errorf("resumed source order %v, want %v", got, want)
	}
}

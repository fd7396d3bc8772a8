package dist

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"regcluster/internal/core"
	"regcluster/internal/faultinject"
	"regcluster/internal/matrix"
	"regcluster/internal/synthetic"
)

func distTestMatrix(t *testing.T) (*matrix.Matrix, core.Params) {
	t.Helper()
	mm, _, err := synthetic.Generate(synthetic.Config{Genes: 110, Conds: 12, Clusters: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return mm, core.Params{MinG: 4, MinC: 4, Gamma: 0.08, Epsilon: 0.05}
}

// mapSource serves replicas from a map, content-addressed like the registry.
type mapSource map[string]*matrix.Matrix

func (s mapSource) Dataset(id string) (*matrix.Matrix, bool) {
	m, ok := s[id]
	return m, ok
}

// mineDist runs (m, p) through core.Run with c as its source, collecting
// the delivered clusters; stopAfter > 0 stops the visitor after that many.
func mineDist(ctx context.Context, c *Coordinator, req MineRequest, m *matrix.Matrix, p core.Params, o core.Options, stopAfter int) ([]*core.Bicluster, core.Stats, error) {
	var got []*core.Bicluster
	o.Visit = func(b *core.Bicluster) bool {
		got = append(got, b)
		return stopAfter <= 0 || len(got) < stopAfter
	}
	o.Source = c.Source(req)
	res, err := core.Run(ctx, m, p, o)
	if err != nil {
		return got, core.Stats{}, err
	}
	return got, res.Stats, nil
}

func assertSameClusters(t *testing.T, want, got []*core.Bicluster) {
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

// Two remote workers over real HTTP, no local mining: the merged stream and
// Stats must be byte-identical to the single-node sequential miner, and both
// workers must mine. The spread is made deterministic by events, not
// timing: the run starts once both workers have joined, and the first lease
// is not handed out until the second worker holds one too, so neither can
// drain the queue alone.
func TestDistributedMineByteIdenticalAcrossWorkers(t *testing.T) {
	m, p := distTestMatrix(t)
	want, err := core.Mine(m, p)
	if err != nil {
		t.Fatal(err)
	}
	id := m.Hash()
	var (
		evMu       sync.Mutex
		registered = make(chan struct{}, 2)
		holders    = map[string]bool{}
		bothLeased = make(chan struct{})
	)
	events := func(ev Event) {
		switch ev.Kind {
		case EventWorkerJoined:
			registered <- struct{}{}
		case EventLeaseIssued:
			evMu.Lock()
			if !holders[ev.Worker] {
				if holders[ev.Worker] = true; len(holders) == 2 {
					close(bothLeased)
				}
			}
			evMu.Unlock()
			<-bothLeased // called before the lease reaches its holder
		}
	}
	c := NewCoordinator(Config{LeaseTTL: 5 * time.Second, Datasets: mapSource{id: m}, Events: events, Logf: t.Logf})
	mux := http.NewServeMux()
	c.Routes(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	workers := make([]*Worker, 2)
	for i := range workers {
		workers[i] = NewWorker(WorkerConfig{Coordinator: srv.URL, Name: fmt.Sprintf("test-worker-%d", i)})
		go workers[i].Run(wctx) //nolint:errcheck // cancelled at test end
	}
	<-registered
	<-registered

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	got, stats, err := mineDist(ctx, c, MineRequest{Job: "job-e2e", DatasetID: id, LocalWorkers: -1}, m, p, core.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertSameClusters(t, want.Clusters, got)
	if !reflect.DeepEqual(want.Stats, stats) {
		t.Errorf("stats: want %+v, got %+v", want.Stats, stats)
	}
	joined, issued, _, completed := c.Counters()
	if joined != 2 {
		t.Errorf("workers joined: want 2, got %d", joined)
	}
	if completed != int64(m.Cols()) || issued < completed {
		t.Errorf("lease counters: issued %d, completed %d (want %d units)", issued, completed, m.Cols())
	}
	if n := c.ActiveLeases(); n != 0 {
		t.Errorf("leases still active after run: %d", n)
	}
	if c.WorkersConnected() != 2 {
		t.Errorf("workers connected: want 2, got %d", c.WorkersConnected())
	}
	// Workers bump Completed after the coordinator has already merged their
	// final heartbeat; give the counters a moment to settle.
	mined := func() int64 { return workers[0].Completed.Load() + workers[1].Completed.Load() }
	for deadline := time.Now().Add(2 * time.Second); mined() != int64(m.Cols()) && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	if mined() != int64(m.Cols()) {
		t.Errorf("worker completions: want %d, got %d", m.Cols(), mined())
	}
	if workers[0].Completed.Load() == 0 || workers[1].Completed.Load() == 0 {
		t.Errorf("work not spread across workers: %d vs %d",
			workers[0].Completed.Load(), workers[1].Completed.Load())
	}
}

// A worker dying mid-lease (faultinject at dist.worker.mine — it stops
// mining and never heartbeats again) must cost only a TTL: the lease is
// revoked, the subtree re-leased, and the final output stays byte-identical.
func TestDistributedMineSurvivesWorkerDeathMidLease(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Arm("dist.worker.mine", faultinject.Spec{After: 8, Times: 1})

	m, p := distTestMatrix(t)
	want, err := core.Mine(m, p)
	if err != nil {
		t.Fatal(err)
	}
	id := m.Hash()
	c := NewCoordinator(Config{LeaseTTL: 120 * time.Millisecond, Datasets: mapSource{id: m}, Logf: t.Logf})
	mux := http.NewServeMux()
	c.Routes(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	var abandoned func() int64
	{
		ws := make([]*Worker, 2)
		for i := range ws {
			ws[i] = NewWorker(WorkerConfig{Coordinator: srv.URL, Name: fmt.Sprintf("doomed-%d", i)})
			go ws[i].Run(wctx) //nolint:errcheck
		}
		abandoned = func() int64 { return ws[0].Abandoned.Load() + ws[1].Abandoned.Load() }
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	got, stats, err := mineDist(ctx, c, MineRequest{Job: "job-kill", DatasetID: id, LocalWorkers: -1}, m, p, core.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if faultinject.Fired("dist.worker.mine") == 0 {
		t.Fatal("kill site never fired; test exercised nothing")
	}
	if abandoned() == 0 {
		t.Error("no worker abandoned a lease")
	}
	if _, _, reassigned, _ := c.Counters(); reassigned == 0 {
		t.Error("no lease was reassigned after the simulated death")
	}
	assertSameClusters(t, want.Clusters, got)
	if !reflect.DeepEqual(want.Stats, stats) {
		t.Errorf("stats: want %+v, got %+v", want.Stats, stats)
	}
}

// isolatedSubtree mines one subtree the way a worker does.
func isolatedSubtree(t *testing.T, ctx context.Context, m *matrix.Matrix, p core.Params, cond int, models []*core.RWaveModel) ([]core.SubtreeCluster, core.Stats) {
	t.Helper()
	var clusters []core.SubtreeCluster
	st, err := core.MineSubtreeFunc(ctx, m, p, cond, models, func(sc core.SubtreeCluster) bool {
		clusters = append(clusters, sc)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return clusters, st
}

// Deterministic watermark recovery, driving the lease protocol directly: a
// holder ships half a subtree and vanishes; the re-issued lease must carry
// Skip equal to exactly what the coordinator verified, and the re-mined
// remainder must complete the run byte-identically. Every subtree ships in
// heartbeats of two clusters, and the merger streams them as they verify,
// so the capped and visitor-stopped inputs trip inside subtrees that
// arrived over several heartbeats; they must still give the sequential
// miner's truncated clusters and Stats.
func TestKilledWorkerResumesFromReceivedWatermark(t *testing.T) {
	m, base := distTestMatrix(t)
	models, err := core.BuildModels(m, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.Mine(m, base)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name      string
		mut       func(*core.Params)
		stopAfter int
	}{
		{"uncapped", func(*core.Params) {}, 0},
		{"node_cap", func(p *core.Params) { p.MaxNodes = ref.Stats.Nodes / 3 }, 0},
		{"cluster_cap", func(p *core.Params) { p.MaxClusters = ref.Stats.Clusters / 2 }, 0},
		{"visitor_stop", func(*core.Params) {}, ref.Stats.Clusters/2 + 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := base
			tc.mut(&p)
			want, wantStats, err := mineSequential(m, p, tc.stopAfter)
			if err != nil {
				t.Fatal(err)
			}
			if tc.name != "uncapped" && !wantStats.Truncated {
				t.Fatal("reference run not truncated; the case is vacuous")
			}
			if tc.name == "cluster_cap" || tc.name == "visitor_stop" {
				root, n := want[len(want)-1].Chain[0], 0
				for _, b := range ref.Clusters {
					if b.Chain[0] == root {
						n++
					}
				}
				if n <= 2 {
					t.Fatalf("truncating subtree has %d clusters, so it arrives in one heartbeat", n)
				}
			}
			c := NewCoordinator(Config{LeaseTTL: 40 * time.Millisecond, Logf: t.Logf})
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()

			var got []*core.Bicluster
			var stats core.Stats
			var mineErr error
			done := make(chan struct{})
			go func() {
				defer close(done)
				got, stats, mineErr = mineDist(ctx, c, MineRequest{LocalWorkers: -1}, m, p, core.Options{Models: models}, tc.stopAfter)
			}()

			killed := tc.name != "uncapped" // only the uncapped input kills a holder
			killedShipped := 0
			resumedSkip := -1
			for {
				select {
				case <-done:
					goto settled
				default:
				}
				ls := c.take("w1", false, nil)
				if ls == nil {
					time.Sleep(3 * time.Millisecond)
					continue
				}
				clusters, st := isolatedSubtree(t, ctx, m, p, ls.unit.cond, models)
				rest := clusters[ls.skip:]
				if !killed && ls.skip == 0 && len(rest) >= 4 {
					// Ship half, then vanish: no Done, no further heartbeats.
					killed = true
					killedShipped = len(rest) / 2
					for shipped := 0; shipped < killedShipped; shipped += 2 {
						batch := rest[shipped:min(shipped+2, killedShipped)]
						resp := c.progress(heartbeatRequest{Worker: "w1", Lease: ls.id, Clusters: batch,
							Ckpt: SubtreeCheckpoint{Cond: ls.unit.cond, Delivered: shipped + len(batch)}})
						if !resp.OK {
							t.Fatalf("half shipment rejected: %+v", resp)
						}
					}
					continue
				}
				if ls.skip > 0 {
					resumedSkip = ls.skip
				}
				for shipped := 0; ; shipped += 2 {
					batch := rest[min(shipped, len(rest)):min(shipped+2, len(rest))]
					final := shipped+2 >= len(rest)
					hb := heartbeatRequest{Worker: "w1", Lease: ls.id, Clusters: batch,
						Ckpt: SubtreeCheckpoint{Cond: ls.unit.cond, Delivered: ls.skip + shipped + len(batch)}}
					if final {
						hb.Done, hb.Stats = true, &st
					}
					resp := c.progress(hb)
					if resp.Revoked {
						// Only a settled (truncated) run drops its leases.
						<-done
						if !wantStats.Truncated {
							t.Fatalf("shipment revoked on an uncapped run: %+v", resp)
						}
						goto settled
					}
					if final {
						break
					}
				}
			}
		settled:
			if mineErr != nil {
				t.Fatal(mineErr)
			}
			if !killed {
				t.Fatal("never found a subtree worth killing; test is vacuous")
			}
			if tc.name == "uncapped" {
				if resumedSkip != killedShipped {
					t.Errorf("re-issued lease skip: want %d (received watermark), got %d", killedShipped, resumedSkip)
				}
				if _, _, reassigned, _ := c.Counters(); reassigned == 0 {
					t.Error("revoker never reassigned the abandoned lease")
				}
			}
			assertSameClusters(t, want, got)
			if !reflect.DeepEqual(wantStats, stats) {
				t.Errorf("stats: want %+v, got %+v", wantStats, stats)
			}
		})
	}
}

// mineSequential is the single-node reference: one worker, the sequential
// miner, stopped after stopAfter deliveries when positive.
func mineSequential(m *matrix.Matrix, p core.Params, stopAfter int) ([]*core.Bicluster, core.Stats, error) {
	var got []*core.Bicluster
	res, err := core.Run(context.Background(), m, p, core.Options{Workers: 1, Visit: func(b *core.Bicluster) bool {
		got = append(got, b)
		return stopAfter <= 0 || len(got) < stopAfter
	}})
	if err != nil {
		return nil, core.Stats{}, err
	}
	return got, res.Stats, nil
}

// A heartbeat that does not extend the verified prefix of its own unit
// exactly — a watermark ahead of what was shipped, a replayed (duplicate)
// batch, a batch naming another subtree, or any heartbeat for a lease that
// was revoked or already completed — must revoke instead of reaching the
// merger, and the run must still merge byte-identically.
func TestWatermarkMismatchRevokesLease(t *testing.T) {
	m, p := distTestMatrix(t)
	models, err := core.BuildModels(m, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(Config{LeaseTTL: time.Hour})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var got []*core.Bicluster
	var stats core.Stats
	var mineErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		got, stats, mineErr = mineDist(ctx, c, MineRequest{LocalWorkers: -1}, m, p, core.Options{Models: models}, 0)
	}()
	lease := func() *leaseState {
		for {
			if ls := c.take("w1", false, nil); ls != nil {
				return ls
			}
			time.Sleep(3 * time.Millisecond)
		}
	}
	revoked := func(label string, hb heartbeatRequest) {
		t.Helper()
		if resp := c.progress(hb); !resp.Revoked {
			t.Fatalf("%s accepted: %+v", label, resp)
		}
	}

	ls := lease()
	revoked("inconsistent watermark", heartbeatRequest{Worker: "w1", Lease: ls.id,
		Ckpt: SubtreeCheckpoint{Cond: ls.unit.cond, Delivered: 7}}) // nothing shipped, claims 7
	revoked("heartbeat for a revoked lease", heartbeatRequest{Worker: "w1", Lease: ls.id,
		Ckpt: SubtreeCheckpoint{Cond: ls.unit.cond, Delivered: 0}})

	// Serve every unit honestly, probing the rejections along the way.
	probed := false
	for served := 0; served < m.Cols(); served++ {
		ls := lease()
		clusters, st := isolatedSubtree(t, ctx, m, p, ls.unit.cond, models)
		if !probed && len(clusters) >= 2 {
			probed = true
			first := heartbeatRequest{Worker: "w1", Lease: ls.id, Clusters: clusters[:1],
				Ckpt: SubtreeCheckpoint{Cond: ls.unit.cond, Delivered: 1}}
			if resp := c.progress(first); !resp.OK {
				t.Fatalf("first batch rejected: %+v", resp)
			}
			revoked("duplicate batch", first)
			ls = lease() // re-issued at the verified watermark
			if ls.skip != 1 {
				t.Fatalf("re-issued skip %d, want 1", ls.skip)
			}
			revoked("batch for another subtree", heartbeatRequest{Worker: "w1", Lease: ls.id, Clusters: clusters[1:2],
				Ckpt: SubtreeCheckpoint{Cond: ls.unit.cond + m.Cols(), Delivered: 2}})
			ls = lease()
		}
		final := heartbeatRequest{Worker: "w1", Lease: ls.id, Clusters: clusters[ls.skip:],
			Ckpt: SubtreeCheckpoint{Cond: ls.unit.cond, Delivered: len(clusters)}, Done: true, Stats: &st}
		if resp := c.progress(final); !resp.OK || resp.Revoked {
			t.Fatalf("completion rejected: %+v", resp)
		}
		revoked("replayed final heartbeat", final)
	}
	<-done
	if mineErr != nil {
		t.Fatal(mineErr)
	}
	if !probed {
		t.Fatal("no subtree had two clusters; the duplicate probe is vacuous")
	}
	want, err := core.Mine(m, p)
	if err != nil {
		t.Fatal(err)
	}
	assertSameClusters(t, want.Clusters, got)
	if !reflect.DeepEqual(want.Stats, stats) {
		t.Errorf("stats: want %+v, got %+v", want.Stats, stats)
	}
}

// Satellite: a replica whose bytes do not hash to the advertised id must be
// rejected before mining — the worker nacks the lease and mines nothing.
func TestWorkerRejectsCorruptReplica(t *testing.T) {
	m, p := distTestMatrix(t)
	evil, _, err := synthetic.Generate(synthetic.Config{Genes: 110, Conds: 12, Clusters: 4, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	id := m.Hash() // advertise the honest hash, serve different bytes
	c := NewCoordinator(Config{
		LeaseTTL: 300 * time.Millisecond, MaxUnitFailures: 2,
		Datasets: mapSource{id: evil}, Logf: t.Logf,
	})
	mux := http.NewServeMux()
	c.Routes(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	w := NewWorker(WorkerConfig{Coordinator: srv.URL, Name: "gullible", Logf: t.Logf})
	go w.Run(wctx) //nolint:errcheck

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	got, _, err := mineDist(ctx, c, MineRequest{Job: "job-corrupt", DatasetID: id, LocalWorkers: -1}, m, p, core.Options{}, 0)
	if err == nil {
		t.Fatal("run with a corrupt replica source did not fail")
	}
	if !strings.Contains(err.Error(), "rejected") || !strings.Contains(err.Error(), "hash") {
		t.Errorf("error does not surface the hash rejection: %v", err)
	}
	if len(got) != 0 {
		t.Errorf("%d clusters mined from unverifiable data", len(got))
	}
	if w.Nacked.Load() == 0 {
		t.Error("worker never nacked the corrupt replica")
	}
	if w.Completed.Load() != 0 || w.Replicated.Load() != 0 {
		t.Errorf("worker accepted corrupt data: completed %d, replicated %d",
			w.Completed.Load(), w.Replicated.Load())
	}
}

// Distributed runs resume from engine checkpoints like local ones: a fresh
// distributed run resumed from any checkpoint a distributed run emitted
// delivers exactly the missing suffix, with the uninterrupted run's Stats.
func TestDistributedResumeFromCheckpoint(t *testing.T) {
	m, p := distTestMatrix(t)
	models, err := core.BuildModels(m, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.Mine(m, p)
	if err != nil {
		t.Fatal(err)
	}
	full := ref.Clusters

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	c := NewCoordinator(Config{LeaseTTL: time.Second})

	// First run: capture cadence checkpoints, let it complete via local mining.
	var cks []core.Checkpoint
	first, _, err := mineDist(ctx, c, MineRequest{}, m, p, core.Options{Models: models,
		Checkpoint: core.CheckpointConfig{EveryClusters: 9, OnCheckpoint: func(ck core.Checkpoint) { cks = append(cks, ck) }}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertSameClusters(t, full, first)
	if len(cks) < 3 {
		t.Fatalf("only %d checkpoints emitted", len(cks))
	}
	for i := range cks {
		ck := cks[i]
		tail, stats, err := mineDist(ctx, c, MineRequest{}, m, p, core.Options{Models: models, Resume: &ck}, 0)
		if err != nil {
			t.Fatal(err)
		}
		assertSameClusters(t, full[ck.Delivered():], tail)
		if !reflect.DeepEqual(ref.Stats, stats) {
			t.Errorf("resume from checkpoint %d: stats want %+v, got %+v", i, ref.Stats, stats)
		}
	}
}

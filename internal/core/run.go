package core

import (
	"context"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"

	"regcluster/internal/faultinject"
	"regcluster/internal/matrix"
	"regcluster/internal/obs"
	"regcluster/internal/rwave"
)

// Visitor receives mined clusters as the depth-first search discovers them.
// Returning false stops the search immediately; the clusters seen so far are
// exactly the prefix of Mine's output.
type Visitor func(b *Bicluster) bool

// Options configures one Run. The zero value mines on GOMAXPROCS local
// workers and collects the clusters into the returned Result.
type Options struct {
	// Workers sizes the local worker pool; <= 0 selects GOMAXPROCS.
	Workers int
	// Visit, when set, receives the clusters in sequential order on the
	// calling goroutine instead of Result.Clusters. Returning false stops
	// the run; the clusters delivered and the returned Stats are then
	// exactly those of a sequential run with the same visitor.
	Visit Visitor
	// Observer, when set, receives live node/cluster counts, and its span
	// (see Observer.SetSpan) parents the run's trace spans.
	Observer *Observer
	// Resume restarts the run from a prior snapshot of a run over the same
	// matrix and Params: the visitor receives exactly the clusters after
	// Resume.Delivered(), and the returned Stats are the uninterrupted
	// run's totals.
	Resume *Checkpoint
	// Checkpoint emits snapshots as the run advances.
	Checkpoint CheckpointConfig
	// Models is a prebuilt model set from BuildModels on the same matrix
	// with a ModelKey-equivalent Params; nil builds one for this run.
	Models []*rwave.Model
	// Source produces the level-1 subtrees: nil mines them on the local
	// worker pool; a distributed coordinator or a Splice fill them instead.
	Source Source
}

// Run is the one mining entry point. Level-1 subtrees (starting conditions)
// are independent — a representative chain lives entirely in the subtree of
// its first condition — so a Source may produce them anywhere and in any
// order; one merger reassembles the exact sequential output from them. The
// result is identical to Mine's for any worker count, any source and any
// placement: the same clusters in starting-condition order, depth-first
// within a subtree, and the same Stats, including runs truncated by the
// global MaxClusters/MaxNodes caps or by a visitor stop.
//
// ctx cancels cooperatively at node and candidate boundaries; the call then
// returns the context's error and no partial result. A panic on a mining
// worker is contained and returned as a *PanicError. A lone local worker
// with no checkpointing runs the sequential miner directly, without that
// containment.
func Run(ctx context.Context, m *matrix.Matrix, p Params, o Options) (*Result, error) {
	res := &Result{}
	visit := o.Visit
	if visit == nil {
		visit = func(b *Bicluster) bool {
			res.Clusters = append(res.Clusters, b)
			return true
		}
	}
	sp := o.Observer.traceSpan()
	models, kern, err := resolveModels(m, p, o.Models, sp)
	if err != nil {
		return nil, err
	}
	if o.Resume != nil {
		if err := o.Resume.Validate(m.Cols()); err != nil {
			return nil, err
		}
	}
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(min(workers, m.Cols()), 1)
	bud := newBudget(p, ctx)
	if o.Source == nil && workers == 1 && o.Resume == nil && !o.Checkpoint.enabled() {
		// One worker degenerates to the sequential miner on the same budget.
		// Resumable runs always take the merger below: it is the accounting
		// that knows subtree boundaries and watermarks.
		mn := newMiner(m, p, kern, bud)
		mn.obs = o.Observer
		mn.span = sp
		mn.sink = func(b *Bicluster, _ int) bool { return visit(b) }
		subtrees := mn.run()
		if err := bud.contextErr(); err != nil {
			return nil, err
		}
		res.Stats = mn.stats
		if mn.stats.Truncated {
			sp.Add("budget_trips", 1)
		} else {
			res.Subtrees = subtrees
		}
		return res, nil
	}

	e := &engine{m: m, p: p, kern: kern, bud: bud, visit: visit, obs: o.Observer, sp: sp,
		ck: o.Checkpoint, subs: make([]*subtree, m.Cols()), settled: make([]Stats, m.Cols()),
		failed: make(chan struct{})}
	if r := o.Resume; r != nil {
		e.start = r.NextCond
		e.skip = r.SkipClusters
		e.agg = r.Prefix
		e.cumNodes = r.Prefix.Nodes
		e.cumClusters = r.Prefix.Clusters
		e.lastChain = r.LastChain
		// Pre-charge the shared budget with the settled prefix so MaxNodes/
		// MaxClusters keep bounding the RUN, not the continuation.
		bud.nodes.Store(int64(r.Prefix.Nodes))
		bud.clusters.Store(int64(r.Prefix.Clusters))
	}
	for c := range e.subs {
		e.subs[c] = newSubtree()
	}
	src := o.Source
	if src == nil {
		src = localPool{}
	}
	run := &Subtrees{Matrix: m, Params: p, Models: models, Span: sp, workers: workers, e: e}
	for _, c := range subtreeOrder(m, p, kern) {
		if c >= e.start { // earlier subtrees settled before the resume snapshot
			run.Order = append(run.Order, c)
		}
	}
	e.stop = sync.OnceFunc(src.Produce(run))
	defer e.stop()
	stats, err := e.emit()
	if err != nil {
		return nil, err
	}
	res.Stats = stats
	if o.Resume == nil && !stats.Truncated {
		res.Subtrees = e.settled
	}
	return res, nil
}

// runStats unpacks a streaming Run's outcome for the entry points that
// return Stats alone.
func runStats(res *Result, err error) (Stats, error) {
	if err != nil {
		return Stats{}, err
	}
	return res.Stats, nil
}

// localPool is the default Source: a pool of worker goroutines mining the
// run's subtrees against the shared budget, largest first.
type localPool struct{}

func (localPool) Produce(run *Subtrees) func() {
	tasks := make([]func(), len(run.Order))
	for i, c := range run.Order {
		tasks[i] = func() { run.e.mineSubtree(c, run.Span) }
	}
	return run.e.startPool(run.workers, tasks)
}

// engine is the merger of one Run: per-condition reordering buffers that a
// Source fills, an in-order emitter (the calling goroutine, see emit) that
// reassembles the deterministic sequential output from them, and the local
// worker pool that sources use to mine subtrees in process.
type engine struct {
	m     *matrix.Matrix
	p     Params
	kern  []rwave.Kernel // shared flat model views (see resolveModels)
	bud   *budget
	visit Visitor
	obs   *Observer
	sp    *obs.Span // optional trace parent for rerun spans; nil = off
	subs  []*subtree
	wg    sync.WaitGroup // local pool workers
	stop  func()         // stops the source and waits for it; idempotent

	// start/skip position a resumed run: subtrees before start are settled
	// (their totals pre-loaded into agg below), and the first skip clusters
	// of subtree start are re-found but not re-delivered.
	start int
	skip  int

	// Checkpoint emission state. ckFresh counts clusters delivered since the
	// last snapshot; lastChain is the chain of the most recent delivery.
	ck        CheckpointConfig
	ckFresh   int
	lastChain []int

	// Exact sequential accounting of the settled prefix: agg/cumNodes/
	// cumClusters cover whole subtrees already delivered, in starting-
	// condition order, and settled holds each one's own Stats.
	agg         Stats
	cumNodes    int
	cumClusters int
	settled     []Stats

	// First failure of the run (a contained worker panic or a source
	// error); failed is closed when it is recorded.
	errMu  sync.Mutex
	runErr error
	failed chan struct{}
}

// startPool runs tasks in order on a pool of workers and returns the stop
// function that cancels the run's budget and waits for the pool. A panic in
// a task is contained on its worker and fails the run.
func (e *engine) startPool(workers int, tasks []func()) func() {
	queue := make(chan func(), len(tasks))
	for _, t := range tasks {
		queue <- t
	}
	close(queue)
	for w := 0; w < workers; w++ {
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			for t := range queue {
				e.contain(t)
			}
		}()
	}
	return func() {
		e.bud.cancel()
		e.wg.Wait()
	}
}

// contain runs one pool task, recording a panic as the run's PanicError
// instead of letting it cross the goroutine.
func (e *engine) contain(task func()) {
	defer e.recoverPanic()
	task()
}

// recoverPanic, deferred directly, fails the run with a recovered panic and
// the panicking goroutine's stack.
func (e *engine) recoverPanic() {
	if r := recover(); r != nil {
		e.fail(&PanicError{Value: r, Stack: debug.Stack()})
	}
}

// mineSubtree mines level-1 subtree c into its buffer on a pool worker,
// under a "subtree" span of parent. The subtree is finished complete
// exactly when the miner ran it to the end: any stop (own cap trip or a
// sibling's cancellation) leaves it schedule-dependent, and the emitter
// re-mines it if needed. A panic fails the run before the subtree is
// finished, so the emitter never re-mines a panicking subtree itself.
func (e *engine) mineSubtree(c int, parent *obs.Span) {
	sub := e.subs[c]
	complete := false
	var stats Stats
	defer func() { sub.finish(stats, complete) }()
	defer e.recoverPanic()
	_ = faultinject.Hook("core.mine.subtree") // panic/delay injection for containment tests
	if e.bud.stopped() {
		return
	}
	ssp := parent.Start("subtree")
	mn := newMiner(e.m, e.p, e.kern, e.bud)
	mn.sink = sub.push
	mn.obs = e.obs
	mn.runFrom(c)
	if ssp != nil {
		ssp.SetInt("cond", int64(c))
		ssp.Add("nodes", int64(mn.stats.Nodes))
		ssp.Add("clusters", int64(mn.stats.Clusters))
		if mn.stop {
			ssp.SetAttr("interrupted", "true")
		}
		ssp.End()
	}
	stats, complete = mn.stats, !mn.stop
}

// fail records the run's first failure and cancels every miner.
func (e *engine) fail(err error) {
	e.errMu.Lock()
	if e.runErr == nil {
		e.runErr = err
		close(e.failed)
	}
	e.errMu.Unlock()
	e.bud.cancel()
}

// err returns the run's first failure: a cancelled context, a contained
// panic or a source error.
func (e *engine) err() error {
	if err := e.bud.contextErr(); err != nil {
		return err
	}
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return e.runErr
}

// wait blocks until sub has news, the run fails, or the context expires.
func (e *engine) wait(sub *subtree) error {
	select {
	case <-sub.note:
		return nil
	case <-e.failed:
	case <-e.bud.done:
		e.bud.ctxHit.Store(true)
	}
	return e.err()
}

// emit drains the subtree buffers in starting-condition order, delivering
// clusters to the visitor while enforcing the sequential-prefix semantics of
// the global caps:
//
//   - a streamed cluster is delivered only if the node that emitted it lies
//     within the global node cap (cumNodes + local node ordinal <= MaxNodes) —
//     the exact set of nodes the sequential miner processes;
//   - the cluster whose delivery reaches MaxClusters is delivered, then the
//     run truncates, as in the sequential miner;
//   - any truncation (cap or visitor stop) re-mines the affected subtree
//     against a budget pre-charged with the settled prefix totals, yielding
//     Stats identical to the truncated sequential run's.
//
// Sources fill subtrees in an arbitrary, schedule-dependent interleaving;
// only the accounting here decides what the run *returns*, which is why the
// output is deterministic and cap-exact regardless of where subtrees were
// mined.
//
// On a resumed run the scan begins at the snapshot's subtree with the
// accounting pre-loaded, and the first skip clusters of that subtree are
// consumed (they count toward every cap, exactly as they did originally) but
// not re-delivered.
func (e *engine) emit() (Stats, error) {
	nodeCap, clusterCap := e.p.MaxNodes, e.p.MaxClusters
	for c := e.start; c < len(e.subs); c++ {
		sub := e.subs[c]
		taken := 0
		closed := false
		for !closed {
			var items []SubtreeCluster
			items, closed = sub.take(taken)
			for _, it := range items {
				if nodeCap > 0 && e.cumNodes+it.Node > nodeCap {
					// The node that emitted this cluster lies beyond the
					// global cap: the sequential miner stops before it.
					return e.truncate(c, taken, clusterCap)
				}
				taken++
				if c != e.start || taken > e.skip {
					if !e.visit(it.Cluster) {
						// A visitor stop right after this cluster is equivalent
						// to a MaxClusters cap at the delivered total.
						return e.truncate(c, taken, e.cumClusters+taken)
					}
					e.noteDelivery(c, taken, it.Cluster)
				}
				if clusterCap > 0 && e.cumClusters+taken >= clusterCap {
					return e.truncate(c, taken, clusterCap)
				}
			}
			if !closed {
				if err := e.wait(sub); err != nil {
					return Stats{}, err
				}
			}
		}
		st, complete := sub.final()
		if err := e.err(); err != nil {
			return Stats{}, err
		}
		if !complete {
			// The worker was interrupted, so the recorded remainder of this
			// subtree is schedule-dependent. Re-mine it sequentially against
			// the exact continuation budget: the rerun either truncates at
			// the precise sequential stop point, or completes — proving the
			// interruption was spurious overshoot — and the scan resumes.
			e.stop()
			skip := taken
			if c == e.start && e.skip > skip {
				// The worker was interrupted before reaching the resume
				// watermark: the rerun must still suppress every cluster the
				// pre-crash run had already delivered.
				skip = e.skip
			}
			st = e.rerun(c, skip, true, clusterCap)
			if err := e.bud.contextErr(); err != nil {
				return Stats{}, err
			}
			e.accountSubtree(c, st)
			if st.Truncated {
				e.sp.Add("budget_trips", 1)
				return e.agg, nil
			}
			continue
		}
		if nodeCap > 0 && e.cumNodes+st.Nodes > nodeCap {
			// The node cap fires inside this subtree after its last
			// delivered cluster.
			return e.truncate(c, taken, clusterCap)
		}
		e.accountSubtree(c, st)
	}
	return e.agg, nil
}

// noteDelivery tracks one delivered cluster for checkpointing: it advances
// the cadence counter, remembers the DFS chain, and snapshots when the
// configured number of deliveries has accumulated. taken is the sequential
// within-subtree ordinal of the delivery, i.e. the subtree watermark.
func (e *engine) noteDelivery(c, taken int, b *Bicluster) {
	if !e.ck.enabled() {
		return
	}
	e.ckFresh++
	e.lastChain = b.Chain
	if e.ck.EveryClusters > 0 && e.ckFresh >= e.ck.EveryClusters {
		e.snapshot(c, taken)
	}
}

// accountSubtree folds a fully settled subtree into the prefix accounting and
// emits a boundary snapshot: after this point a resumed run starts cleanly at
// the next starting condition.
func (e *engine) accountSubtree(c int, st Stats) {
	e.settled[c] = st
	e.agg.Add(st)
	e.cumNodes += st.Nodes
	e.cumClusters += st.Clusters
	if e.ck.enabled() && !st.Truncated {
		e.snapshot(c+1, 0)
	}
}

// snapshot emits one Checkpoint positioned before the skip-th undelivered
// cluster of subtree nextCond. Runs on the emitter goroutine.
func (e *engine) snapshot(nextCond, skip int) {
	e.ckFresh = 0
	e.sp.Add("checkpoints", 1)
	ck := Checkpoint{Version: CheckpointVersion, NextCond: nextCond, SkipClusters: skip, Prefix: e.agg}
	if len(e.lastChain) > 0 {
		ck.LastChain = append([]int(nil), e.lastChain...)
	}
	e.ck.OnCheckpoint(ck)
}

// truncate settles a truncation detected while streaming subtree c, after
// `taken` of its clusters were delivered: the source stops, and the subtree
// is re-mined against the pre-charged continuation budget solely to
// reproduce the truncated sequential run's Stats. No further clusters are
// delivered.
func (e *engine) truncate(c, taken, effClusterCap int) (Stats, error) {
	e.sp.Add("budget_trips", 1)
	e.stop()
	if err := e.err(); err != nil {
		return Stats{}, err
	}
	e.agg.Add(e.rerun(c, taken, false, effClusterCap))
	if err := e.bud.contextErr(); err != nil {
		return Stats{}, err
	}
	return e.agg, nil
}

// rerun re-mines subtree c single-threaded against a fresh budget whose
// counters are pre-charged with the settled prefix totals, making its
// behavior — truncation point, cluster sequence and every Stats counter —
// identical to the sequential miner's continuation into this subtree. The
// first `skip` clusters were already delivered and are suppressed; when
// deliver is set the remainder streams to the visitor (whose stop truncates
// the rerun exactly like a sequential run).
func (e *engine) rerun(c, skip int, deliver bool, clusterCap int) Stats {
	rsp := e.sp.Start("rerun")
	if rsp != nil {
		rsp.SetInt("cond", int64(c))
		rsp.SetInt("skip", int64(skip))
		if deliver {
			rsp.SetAttr("deliver", "true")
		}
		defer rsp.End()
	}
	rbud := prechargedBudget(e.p.MaxNodes, clusterCap, e.cumNodes, e.cumClusters)
	// The rerun observes the run's context too: reconciliation after a cap
	// trip can mine for a while, and cancellation must interrupt it. A
	// context stop is propagated back to the shared budget so the emitter's
	// contextErr checks see it.
	rbud.done = e.bud.done
	rbud.ctxErr = e.bud.ctxErr
	defer func() {
		if rbud.ctxHit.Load() {
			e.bud.ctxHit.Store(true)
			e.bud.cancelled.Store(true)
		}
	}()
	emitted := 0
	mn := newMiner(e.m, e.p, e.kern, rbud)
	mn.sink = func(b *Bicluster, _ int) bool {
		emitted++
		if !deliver || emitted <= skip {
			return true
		}
		if !e.visit(b) {
			return false
		}
		e.noteDelivery(c, emitted, b)
		return true
	}
	mn.runFrom(c)
	return mn.stats
}

// subtree is the reordering buffer of one level-1 subtree: its source pushes
// clusters as they are found, and the in-order emitter drains the buffer
// once every earlier subtree has been settled.
type subtree struct {
	mu       sync.Mutex
	items    []SubtreeCluster
	stats    Stats
	complete bool          // mined to the end without interruption
	closed   bool          // no more pushes will arrive
	note     chan struct{} // capacity-1 wakeup for the emitter
}

func newSubtree() *subtree {
	return &subtree{note: make(chan struct{}, 1)}
}

// push is the local miner sink.
func (s *subtree) push(b *Bicluster, node int) bool {
	s.add(SubtreeCluster{Cluster: b, Node: node})
	return true
}

// add appends items; false means the subtree is already closed and nothing
// was added.
func (s *subtree) add(items ...SubtreeCluster) bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	s.items = append(s.items, items...)
	s.mu.Unlock()
	s.wake()
	return true
}

// finish closes the subtree; false means it was already closed and the
// first finish stands.
func (s *subtree) finish(stats Stats, complete bool) bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	s.stats = stats
	s.complete = complete
	s.closed = true
	s.mu.Unlock()
	s.wake()
	return true
}

func (s *subtree) wake() {
	select {
	case s.note <- struct{}{}:
	default:
	}
}

// take returns the buffered clusters from index `from` on, plus the closed
// flag. Close happens under the same lock as the final push, so a take that
// observes closed has observed every cluster. The returned slice aliases the
// buffer: the source only ever appends past its end, never rewrites it.
func (s *subtree) take(from int) ([]SubtreeCluster, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.items[from:], s.closed
}

func (s *subtree) final() (Stats, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats, s.complete
}

// subtreeOrder returns the starting conditions sorted by decreasing subtree
// size estimate — the number of initial (gene, direction) members pruning
// (2) admits, the same count runFrom materializes. Level-1 subtree sizes are
// highly skewed, so dispatching the largest first keeps the pool busy to the
// end instead of leaving one worker grinding a giant subtree after the queue
// drains. Ties keep ascending condition order, so dispatch is deterministic.
func subtreeOrder(m *matrix.Matrix, p Params, kern []rwave.Kernel) []int {
	nConds := m.Cols()
	size := make([]int, nConds)
	// Gene-major walk so each kernel's Rank/UpLen/DownLen stripes are
	// streamed once, instead of revisiting every gene per condition.
	for g := range kern {
		k := &kern[g]
		for c := 0; c < nConds; c++ {
			r := k.Rank[c]
			if p.DisableChainLengthPruning || k.UpLen[r] >= p.MinC {
				size[c]++
			}
			if p.DisableChainLengthPruning || k.DownLen[r] >= p.MinC {
				size[c]++
			}
		}
	}
	order := make([]int, nConds)
	for c := range order {
		order[c] = c
	}
	sort.SliceStable(order, func(a, b int) bool { return size[order[a]] > size[order[b]] })
	return order
}

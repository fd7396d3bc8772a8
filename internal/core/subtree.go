package core

import (
	"context"
	"fmt"

	"regcluster/internal/matrix"
	"regcluster/internal/obs"
	"regcluster/internal/rwave"
)

// Subtree sources: the distribution surface of the miner.
//
// A level-1 subtree (one starting condition) is the natural unit of a mining
// run — a representative chain lives entirely in the subtree of its first
// condition, so subtrees are independent and can be mined anywhere, in any
// order, by any process that holds the same matrix and Params. Run owns one
// merger (engine.emit in run.go) with a reordering buffer per subtree; a
// Source fills those buffers, and the merger turns them into the exact
// sequential output, enforcing the global MaxNodes/MaxClusters caps,
// visitor stops, checkpoints and resume watermarks the same way for every
// source. Three sources exist:
//
//   - the local worker pool (the default), mining subtrees in process
//     against the run's shared budget;
//   - a distributed coordinator (package dist), pushing each verified
//     heartbeat batch of a leased subtree and finishing it on the final
//     heartbeat;
//   - Splice (incremental.go), pushing the subtrees an append delta cannot
//     change from the parent result, finished with the parent's
//     Result.Subtrees Stats, and mining the rest on the local pool.

// SubtreeCluster is one cluster found inside a subtree, tagged with the
// subtree-local node ordinal of its emission (the miner's Stats.Nodes at that
// moment). The ordinal lets the merger decide whether the sequential miner,
// charged with the preceding subtrees' nodes, would still have processed the
// emitting node. All fields are integers, so the JSON round-trip across a
// process boundary is exact.
type SubtreeCluster struct {
	Cluster *Bicluster `json:"cluster"`
	Node    int        `json:"node"`
}

// Source produces the level-1 subtrees of one Run into its merger.
type Source interface {
	// Produce starts filling the subtrees of run.Order — each one pushed in
	// DFS order and finished exactly once — and returns at once with a
	// function that stops production and waits until no further Push or
	// Finish can happen. Run calls the stop function when the merger
	// settles, truncates or fails.
	Produce(run *Subtrees) (stop func())
}

// Subtrees is a Run's merger as its Source sees it: the run's inputs, the
// conditions still to produce, and one reordering buffer per condition.
// Push, Finish and Fail are safe for concurrent use.
type Subtrees struct {
	Matrix *matrix.Matrix
	Params Params
	Models []*rwave.Model // the run's model set, prebuilt or built by Run
	Span   *obs.Span      // the run's trace parent; nil when tracing is off
	// Order lists the conditions not settled by a resume snapshot, in the
	// largest-estimated-subtree-first order a source should dispatch them
	// so the skewed tail does not land last.
	Order []int

	workers int // local pool size
	e       *engine
}

// Push appends clusters to subtree cond's buffer. They must continue the
// subtree's DFS order exactly where the previous push ended, and carry the
// node ordinals of an isolated, uncapped mine (MineSubtreeFunc). A push for a
// condition outside the matrix, or after the subtree's Finish, fails the run.
func (s *Subtrees) Push(cond int, batch []SubtreeCluster) {
	if sub := s.subtree(cond); sub != nil && !sub.add(batch...) {
		s.Fail(fmt.Errorf("core: push to subtree %d after its finish", cond))
	}
}

// Finish closes subtree cond with the isolated Stats of the complete,
// uncapped subtree. Abandoned (Truncated) Stats, a condition outside the
// matrix, or a second Finish fail the run.
func (s *Subtrees) Finish(cond int, stats Stats) {
	if stats.Truncated {
		s.Fail(fmt.Errorf("core: subtree %d finished with abandoned (truncated) stats", cond))
		return
	}
	if sub := s.subtree(cond); sub != nil && !sub.finish(stats, true) {
		s.Fail(fmt.Errorf("core: subtree %d finished twice", cond))
	}
}

// subtree returns cond's buffer, or fails the run when cond is no condition
// of the matrix.
func (s *Subtrees) subtree(cond int) *subtree {
	if cond < 0 || cond >= len(s.e.subs) {
		s.Fail(fmt.Errorf("core: subtree condition %d outside [0,%d)", cond, len(s.e.subs)))
		return nil
	}
	return s.e.subs[cond]
}

// Fail ends the run with err: the merger returns it and stops the source.
func (s *Subtrees) Fail(err error) { s.e.fail(err) }

// MineSubtreeFunc mines the single level-1 subtree rooted at cond, streaming
// every cluster to visit in DFS order together with its subtree-local node
// ordinal. The run is isolated: MaxNodes/MaxClusters are ignored (global caps
// are the merger's job, and a worker cannot know how much budget precedes
// it), and the returned Stats count only this subtree. A false return from
// visit abandons the subtree — the Stats are then incomplete (Truncated is
// set) and must not be finished into a merger. ctx cancels cooperatively at
// node and candidate boundaries.
func MineSubtreeFunc(ctx context.Context, m *matrix.Matrix, p Params, cond int, models []*rwave.Model, visit func(SubtreeCluster) bool) (Stats, error) {
	if visit == nil {
		return Stats{}, fmt.Errorf("core: MineSubtreeFunc requires a visitor")
	}
	_, kern, err := resolveModels(m, p, models, nil)
	if err != nil {
		return Stats{}, err
	}
	if cond < 0 || cond >= m.Cols() {
		return Stats{}, fmt.Errorf("core: subtree condition %d outside [0,%d)", cond, m.Cols())
	}
	iso := p
	iso.MaxNodes, iso.MaxClusters = 0, 0
	bud := newBudget(iso, ctx)
	mn := newMiner(m, iso, kern, bud)
	mn.sink = func(b *Bicluster, node int) bool {
		return visit(SubtreeCluster{Cluster: b, Node: node})
	}
	mn.runFrom(cond)
	if err := bud.contextErr(); err != nil {
		return Stats{}, err
	}
	return mn.stats, nil
}

package core

import (
	"sync/atomic"

	"regcluster/internal/matrix"
	"regcluster/internal/rwave"
)

// Incremental re-mining under append-conditions deltas.
//
// A level-1 subtree (all clusters whose representative chain starts at one
// condition) depends only on the regulation structure reachable from its
// root within γ steps. When a dataset grows by appended conditions, most
// subtrees cannot change: a new condition d can influence the subtree rooted
// at c only if some gene regulates between c and d — that is, d lies in
// succ_g(c) or pred_g(c) for some gene g. Every way the miner's output for
// root c could differ — d entering a chain (chains only ever extend through
// per-gene successor/predecessor sets, which are transitive), d changing a
// candidate set (candidates are enumerated from the succ/pred sets of chain
// members, all within γ-reach of c), or d shifting a chain-length pruning
// bound (UpLen/DownLen recurse through the same sets) — requires exactly that
// regulation relation. A condition with no such gene is *clean*: its subtree
// in the grown dataset is identical to its subtree in the parent, clusters
// and isolated Stats both, so the parent's cached output can be spliced in
// unmined. Splice exploits this: it re-mines only dirty subtrees and reuses
// the rest, producing output byte-identical to a cold mine of the grown
// matrix (the property TestDifferentialIncrementalVsCold pins).

// IncrementalInfo reports how an incremental re-mine executed: whether the
// subtree-reuse fast path ran, how many level-1 subtrees it spliced from the
// parent result versus re-mined, and — when it fell back to a cold parallel
// mine — why.
type IncrementalInfo struct {
	// Incremental is true when the subtree-reuse path produced the result.
	Incremental bool `json:"incremental"`
	// SubtreesReused counts parent subtrees spliced without re-mining.
	SubtreesReused int `json:"subtrees_reused"`
	// SubtreesMined counts subtrees mined fresh (dirty old conditions plus
	// every appended condition).
	SubtreesMined int `json:"subtrees_mined"`
	// Fallback names the reason the fast path was ineligible; empty when
	// Incremental is true.
	Fallback string `json:"fallback,omitempty"`
}

// gammaAbsFor resolves the absolute per-gene threshold (m, p) implies for
// gene g, mirroring prepare's scheme dispatch: custom thresholds verbatim,
// AbsoluteGamma verbatim, and otherwise the paper's Equation 4 relative form
// γ_g = Gamma × RowRange(g) — the exact expression rwave.Build evaluates, so
// a model built with this threshold is bit-identical to prepare's.
func gammaAbsFor(m *matrix.Matrix, p Params, g int) float64 {
	switch {
	case p.CustomGammas != nil:
		return p.CustomGammas[g]
	case p.AbsoluteGamma:
		return p.Gamma
	default:
		return p.Gamma * m.RowRange(g)
	}
}

// RepairModels builds the packed model set for (child, p), splicing each
// gene's appended conditions into its parent model where rwave.Repair's fast
// path is sound (same gene, identical prefix values, unchanged absolute
// threshold) and rebuilding that gene cold otherwise — including the
// relative-gamma case where appended values grow a row's range and shift its
// threshold. parentModels may be shorter than the child's gene count (genes
// appended) or nil; missing genes build cold. The parent models are never
// mutated or rebound: the result is a fresh set, packed like BuildModels'
// output and byte-identical to it (TestDifferentialRepairVsBuildModels).
// The second return counts genes repaired on the fast path.
func RepairModels(child *matrix.Matrix, p Params, parentModels []*rwave.Model, o *Observer) ([]*rwave.Model, int, error) {
	if err := validateInputs(child, p); err != nil {
		return nil, 0, err
	}
	var repaired atomic.Int64
	sp := o.traceSpan()
	bsp := sp.Start("rwave.repair")
	models := rwave.BuildAllSpan(child.Rows(), func(g int) *rwave.Model {
		var old *rwave.Model
		if g < len(parentModels) {
			old = parentModels[g]
		}
		mod, fast := rwave.Repair(old, child, g, gammaAbsFor(child, p, g))
		if fast {
			repaired.Add(1)
		}
		return mod
	}, bsp)
	rwave.PackModels(models)
	if bsp != nil {
		bsp.SetInt("repaired", repaired.Load())
		bsp.End()
	}
	return models, int(repaired.Load()), nil
}

// dirtyConditions computes the append delta's per-condition dirty bitmap:
// condition c is dirty iff some gene regulates between c and an appended
// condition (index >= oldConds). Appended conditions are always dirty. Per
// gene the test is two rank intervals read off the exact frontiers: an
// appended d is a successor of every condition ranked <= PredEnd[rank(d)]
// and a predecessor of every condition ranked >= SuccStart[rank(d)], so one
// pass over the appended conditions yields the gene's dirty rank range.
func dirtyConditions(kern []rwave.Kernel, oldConds, conds int) []bool {
	dirty := make([]bool, conds)
	for c := oldConds; c < conds; c++ {
		dirty[c] = true
	}
	for g := range kern {
		k := &kern[g]
		hi, lo := -1, conds
		for d := oldConds; d < conds; d++ {
			r := k.Rank[d]
			if pe := k.PredEnd[r]; pe > hi {
				hi = pe
			}
			if ss := k.SuccStart[r]; ss < lo {
				lo = ss
			}
		}
		for r := 0; r <= hi; r++ {
			dirty[k.Order[r]] = true
		}
		for r := lo; r < conds; r++ {
			dirty[k.Order[r]] = true
		}
	}
	return dirty
}

// incrementalFallback names the first reason (parent, p, results) cannot take
// the subtree-reuse path; empty means eligible. The checks guard exactly the
// assumptions the splice relies on: a conditions-only append whose old values
// and per-gene thresholds are unchanged, a complete parent result with the
// Stats of each subtree, no node cap (the merger would need the per-cluster
// node ordinals the parent result does not keep), and the default candidate
// enumeration whose reachability argument the dirty bitmap encodes.
func incrementalFallback(child, parent *matrix.Matrix, p Params, parentResult *Result) string {
	switch {
	case parent == nil || parentResult == nil:
		return "no parent result"
	case child.Rows() != parent.Rows():
		return "gene axis changed"
	case child.Cols() <= parent.Cols():
		return "no appended conditions"
	case p.MaxNodes > 0:
		return "node cap requires per-cluster node ordinals"
	case p.NaiveCandidates:
		return "naive-candidates ablation"
	case parentResult.Stats.Truncated:
		return "parent result truncated"
	case len(parentResult.Subtrees) != parent.Cols():
		return "no per-subtree stats"
	}
	for g := 0; g < child.Rows(); g++ {
		if gammaAbsFor(child, p, g) != gammaAbsFor(parent, p, g) {
			return "per-gene threshold drift"
		}
		for c := 0; c < parent.Cols(); c++ {
			if child.At(g, c) != parent.At(g, c) {
				return "parent values rewritten"
			}
		}
	}
	return ""
}

// Splice is the incremental Source: it re-mines a child matrix grown by an
// append-conditions delta over Parent, reusing ParentResult where the delta
// provably cannot change it. Clean subtrees are pushed from ParentResult
// verbatim and finished with their isolated Stats from
// ParentResult.Subtrees; subtrees rooted at dirty conditions — the appended
// ones, plus old conditions some gene regulates against an appended one —
// are mined on the local pool. Every subtree thus reaches the merger exactly
// as a cold run would produce it, so MaxClusters caps, visitor stops,
// checkpoints and resume behave as they do for any source, and the Run's
// output — cluster stream, Stats and Subtrees — is byte-identical to a cold
// mine of the child.
//
// Ineligible inputs (gene-axis growth, per-gene threshold drift under
// relative gamma, a node cap, a truncated parent or one without per-subtree
// Stats, the naive-candidates ablation) fall back to the local pool; Info
// reports which path ran. The live Observer counts nodes only for re-mined
// subtrees; cluster counts cover the full stream. A Splice serves one Run.
type Splice struct {
	Parent       *matrix.Matrix
	ParentResult *Result

	info IncrementalInfo
}

// Info reports how the Run that used s executed.
func (s *Splice) Info() IncrementalInfo { return s.info }

// Produce implements Source.
func (s *Splice) Produce(run *Subtrees) func() {
	e := run.e
	reason := incrementalFallback(run.Matrix, s.Parent, run.Params, s.ParentResult)
	var dirty []bool
	if reason == "" {
		oldConds := s.Parent.Cols()
		dirty = dirtyConditions(e.kern, oldConds, run.Matrix.Cols())
		s.info.SubtreesMined = run.Matrix.Cols() - oldConds
		for c := 0; c < oldConds; c++ {
			if dirty[c] {
				s.info.SubtreesMined++
			}
		}
		if s.info.SubtreesMined == run.Matrix.Cols() {
			reason = "every subtree dirtied by the delta"
		}
	}
	var byRoot [][]*Bicluster
	if reason == "" {
		// Group the parent's clusters by subtree root. Clusters arrive in
		// starting-condition order with DFS order inside each subtree, so
		// per-root grouping preserves the intra-subtree order exactly.
		byRoot = make([][]*Bicluster, s.Parent.Cols())
		for _, b := range s.ParentResult.Clusters {
			if len(b.Chain) == 0 || b.Chain[0] < 0 || b.Chain[0] >= len(byRoot) {
				reason = "parent result malformed"
				break
			}
			byRoot[b.Chain[0]] = append(byRoot[b.Chain[0]], b)
		}
		for c, clusters := range byRoot {
			if len(clusters) != s.ParentResult.Subtrees[c].Clusters {
				reason = "parent result malformed"
				break
			}
		}
	}
	if reason != "" {
		s.info = IncrementalInfo{Fallback: reason}
		return localPool{}.Produce(run)
	}
	s.info.Incremental = true
	s.info.SubtreesReused = run.Matrix.Cols() - s.info.SubtreesMined
	isp := run.Span.Start("incremental.mine")
	isp.SetInt("subtrees_mined", int64(s.info.SubtreesMined))
	isp.SetInt("subtrees_reused", int64(s.info.SubtreesReused))

	// Dirty subtrees mine on the pool in dispatch order; clean ones are
	// pushed here, in starting-condition order, skipping any a resume
	// snapshot already settled.
	var tasks []func()
	for _, c := range run.Order {
		if dirty[c] {
			tasks = append(tasks, func() { e.mineSubtree(c, isp) })
		}
	}
	stop := e.startPool(run.workers, tasks)
	for c, clusters := range byRoot {
		if dirty[c] || c < e.start {
			continue
		}
		batch := make([]SubtreeCluster, len(clusters))
		for i, b := range clusters {
			batch[i].Cluster = b
		}
		run.Push(c, batch)
		run.Finish(c, s.ParentResult.Subtrees[c])
		if e.obs != nil {
			// Re-mined clusters tick the live counter at discovery inside the
			// miner; spliced ones tick here so the final count covers the
			// whole stream.
			e.obs.clusters.Add(int64(len(clusters)))
		}
	}
	return func() {
		stop()
		isp.End()
	}
}

// Package core implements the reg-cluster mining algorithm of "Mining
// Shifting-and-Scaling Co-Regulation Patterns on Gene Expression Profiles"
// (Xu, Lu, Tung, Wang — ICDE 2006).
//
// # The model
//
// A reg-cluster (Definition 3.2) is a bicluster C = X × Y over a gene ×
// condition expression matrix, where Y = (c1, c2, ..., cn) is an ORDERED
// condition chain and X splits into p-members and n-members:
//
//   - every p-member's expression strictly rises along the chain, and every
//     adjacent step clears the gene's regulation threshold γ_i (Equation 3;
//     by default γ_i = γ × range(gene), Equation 4);
//
//   - every n-member strictly falls along the chain with the same per-step
//     significance;
//
//   - all members agree on the RELATIVE step sizes: for each adjacent pair
//     (ck, ck+1), the coherence scores
//
//     H(i) = (d[i][ck+1] − d[i][ck]) / (d[i][c2] − d[i][c1])
//
//     of all members lie within ε of each other (Equation 7).
//
// Lemma 3.2 shows the H-score agreement is equivalent to the existence of a
// perfect shifting-and-scaling relationship d_i = s1·d_j + s2 between any
// two members (when ε = 0), with s1 < 0 exactly between p- and n-members.
// That is why one model simultaneously captures pure shifting (s1 = 1), pure
// scaling (s2 = 0), the general affine mixture, and negative co-regulation.
//
// # The index
//
// Each gene gets an RWave^γ model (package internal/rwave): its conditions
// sorted by value with the minimal set of non-embedded regulation pointers.
// The index answers, in O(log n), "which conditions are up-regulated w.r.t.
// c?" and precomputes for every condition the longest up- and down-chain
// reachable from it — the engine of pruning (2).
//
// # The search
//
// mineC2 (Figure 5 of the paper) grows representative regulation chains
// depth-first. A search node holds the chain and its member list, each
// member being a (gene, direction) pair. Extension works as follows:
//
//  1. Candidate conditions are the regulation successors of the chain tail
//     over the P-MEMBERS' indexes only (sound because a candidate with no
//     p-member support can never yield a representative chain, see pruning
//     3a below).
//  2. For a candidate ci, each member is tested: p-members need ci to be a
//     regulation successor of the tail in their model, n-members a
//     regulation predecessor. Pruning (2) drops members whose maximal
//     remaining chain cannot reach MinC.
//  3. Surviving members are sorted by their H score for (tail, ci); every
//     maximal sliding window with H-spread ≤ ε and ≥ MinG members becomes a
//     child node (pruning 4 cuts candidates with no window).
//
// A node is output when the chain has ≥ MinC conditions, ≥ MinG distinct
// genes, and is the REPRESENTATIVE orientation: p-members outnumber
// n-members, or tie with the chain starting at the larger condition id. The
// mirrored orientation of every cluster is reached by the DFS from the other
// chain end and suppressed by this rule, so each cluster is reported once.
//
// # Prunings
//
//	(1)  |X| < MinG                   — subtree cannot reach MinG.
//	(2)  chainLen + maxChainFrom(ci) < MinC per member — member useless.
//	(3a) 2·|pX| < MinG                — p-members can never reach majority.
//	(3b) duplicate (chain, members) output state — identical subtree.
//	(4)  no coherence window          — candidate extension dies.
//
// All of (1), (2), (3a), (3b) are output-preserving accelerations; (4) is
// model semantics. Params carries ablation switches that disable each one,
// and the test suite verifies output preservation; completeness_test.go
// additionally cross-validates the whole miner against an exponential
// reference enumerator on randomized small inputs.
//
// # Beyond the paper
//
// Resource budgets are a first-class subsystem (budget.go): MaxNodes and
// MaxClusters charge one shared atomic budget no matter how many miners run,
// so sequential and parallel runs truncate at exactly the same global caps,
// and cancellation (a cap trip, a visitor stop, or a context deadline)
// propagates cooperatively to every worker.
//
// Run is the one mining entry point (run.go). It keeps one reordering buffer
// per level-1 subtree and one in-order merger that owns the exact sequential
// accounting — caps, visitor stops, truncation reruns, checkpoints and the
// resume watermark — and returns output identical to Mine's, clusters and
// Stats, truncated runs included, plus each subtree's isolated Stats
// (Result.Subtrees) when the run completed without a resume. A Source fills
// the buffers: the local worker pool (the default, largest subtree first), a
// distributed coordinator (package dist) pushing verified heartbeat batches,
// or Splice (incremental.go) pushing the subtrees an append delta cannot
// change from the parent result, finished with the parent's per-subtree
// Stats. Params.CustomGammas plugs in the alternative per-gene
// regulation thresholds Section 3.1 mentions (thresholds.go).
// CheckBicluster validates any cluster against Definition 3.2 directly from
// the raw matrix, independent of the index and search.
package core

// Immutable compressed-sparse-row directed graph.
//
// CsrGraph is the representation every ranking algorithm consumes: two
// flat arrays (offsets + neighbor ids) give sequential memory access in
// the PageRank inner loop and zero per-node allocation. The transpose
// (in-link view) is built lazily on demand and cached, since PageRank's
// pull formulation and HITS both need it. The lazy build is guarded by
// std::call_once, so concurrent ranking engines may request the in-link
// view of a shared graph without external synchronization.

#ifndef QRANK_GRAPH_CSR_GRAPH_H_
#define QRANK_GRAPH_CSR_GRAPH_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/status.h"
#include "graph/edge_list.h"

namespace qrank {

struct GraphDelta;

class CsrGraph {
 public:
  CsrGraph() = default;

  /// Builds from an edge list. Duplicate edges and self-loops are removed
  /// (footnote: a self-link is not an endorsement). Fails with
  /// InvalidArgument if any endpoint id >= edges.num_nodes().
  static Result<CsrGraph> FromEdgeList(const EdgeList& edges);

  /// Convenience: builds from raw (src, dst) pairs with `num_nodes` nodes.
  static Result<CsrGraph> FromEdges(NodeId num_nodes,
                                    const std::vector<Edge>& edges);

  NodeId num_nodes() const { return num_nodes_; }
  size_t num_edges() const { return dst_.size(); }

  /// Out-neighbors of `u` in ascending id order.
  std::span<const NodeId> OutNeighbors(NodeId u) const {
    return {dst_.data() + offsets_[u], dst_.data() + offsets_[u + 1]};
  }

  uint32_t OutDegree(NodeId u) const {
    return static_cast<uint32_t>(offsets_[u + 1] - offsets_[u]);
  }

  /// In-neighbors of `u` (from the cached transpose; builds it on first
  /// use — O(E)). Thread-safe: concurrent first calls build exactly once.
  std::span<const NodeId> InNeighbors(NodeId u) const;

  uint32_t InDegree(NodeId u) const;

  /// All in-degrees without materializing the transpose (O(E) each call).
  std::vector<uint32_t> ComputeInDegrees() const;

  /// Nodes with no out-links ("dangling" pages; footnote 2 of the paper).
  std::vector<NodeId> DanglingNodes() const;
  size_t CountDanglingNodes() const;

  /// True if edge u->v exists (binary search over OutNeighbors, O(log d)).
  bool HasEdge(NodeId u, NodeId v) const;

  /// The transposed graph as an independent CsrGraph (O(E)).
  CsrGraph Transpose() const;

  /// Relabels every node: old id u becomes perm[u]. `perm` must be a
  /// bijection on [0, num_nodes) (InvalidArgument otherwise — see
  /// ValidatePermutation in graph/reorder.h). Adjacency rows are
  /// re-sorted so the result satisfies the usual CSR invariants; the
  /// transpose cache is not carried over (the permuted graph rebuilds
  /// it lazily). Permute(perm) followed by Permute(inverse) round-trips
  /// to an identical graph. O(E log d).
  Result<CsrGraph> Permute(const std::vector<NodeId>& perm) const;

  /// Builds the cached transpose now if absent. Safe to call
  /// concurrently (std::call_once); parallel algorithms call it before
  /// fanning out readers so the O(E) build lands outside timed regions.
  void BuildTranspose() const { EnsureTranspose(); }

  /// True if the lazy transpose has been built (or patched in by
  /// ApplyDelta) — i.e. InNeighbors() is O(1) from here on.
  bool has_transpose() const {
    return transpose_->ready.load(std::memory_order_acquire);
  }

  /// Applies a structural delta (see graph/graph_delta.h), producing the
  /// successor snapshot's graph by splicing: each run of rows the delta
  /// does not touch is one copy of its targets with its offsets shifted
  /// by a constant, and only the touched rows are merged entry by entry.
  /// The cost is those copies (O(n + E) bytes, no per-edge branch) plus
  /// O(|delta| + degree of the touched rows); no edge sort, no
  /// degree-count scatter. If this graph's transpose cache is built, the
  /// successor's transpose is spliced from it the same way, keyed by
  /// (dst, src), so ranking engines on the new graph skip the O(E)
  /// rebuild.
  ///
  /// The delta must be exact: both edge lists strictly sorted, every
  /// removed edge must exist, no added edge may already exist, and a
  /// shrinking delta must list every edge
  /// incident to a dropped node — InvalidArgument otherwise. Rebuilding
  /// from scratch (FromEdgeList) remains the correctness oracle.
  Result<CsrGraph> ApplyDelta(const GraphDelta& delta) const;

  /// Raw CSR arrays, exposed for tight analytic loops.
  const std::vector<size_t>& offsets() const { return offsets_; }
  const std::vector<NodeId>& targets() const { return dst_; }

  /// Raw cached-transpose arrays (in-edge CSR: row starts + sources),
  /// for pull kernels that want pointer-chasing-free inner loops with
  /// no per-row synchronization. Builds the transpose on first use.
  std::span<const size_t> in_offsets() const;
  std::span<const NodeId> in_sources() const;

  /// Structural self-check, O(E): monotone offsets with leading zero and
  /// total num_edges, in-range strictly-ascending self-loop-free
  /// adjacency; when `check_transpose` and the cached transpose is
  /// built, also verifies the cache agrees with the forward arrays
  /// edge-for-edge. Returns the first violation as InvalidArgument.
  ///
  /// This is the Status-form invariant core that the compile-time
  /// QRANK_AUDIT_LEVEL hooks run after each mutation; the audit library
  /// (src/audit/) layers named per-validator reports on top of the same
  /// rules for the CLI and the mutation tests.
  Status CheckConsistency(bool check_transpose = true) const;

 private:
  // Test-only backdoor (tests/audit/) used to seed targeted corruptions
  // the mutation tests prove the validators catch. Never used by
  // library code.
  friend struct CsrGraphTestAccess;
  void EnsureTranspose() const;

  NodeId num_nodes_ = 0;
  std::vector<size_t> offsets_;  // size num_nodes_ + 1
  std::vector<NodeId> dst_;      // size num_edges

  struct TransposeCache {
    std::vector<size_t> offsets;
    std::vector<NodeId> src;
  };
  void BuildTransposeCache(TransposeCache* cache) const;
  // Transpose half of CheckConsistency, callable on a not-yet-published
  // cache (the audit-level-2 hook inside the lazy build).
  Status CheckTransposeAgreement(const TransposeCache& cache) const;

  // Lazily built transpose, shared between copies so copies stay cheap
  // and a copy made after (or during) the build reuses the cache. `once`
  // serializes the lazy build across threads; `ready` is the fast-path
  // flag (release-published after the build, so readers that observe it
  // see a complete cache). The state object is allocated at construction
  // and the pointer never reseated, so concurrent readers + copiers of a
  // const graph are race-free.
  struct TransposeState {
    std::once_flag once;
    std::atomic<bool> ready{false};
    TransposeCache cache;
  };
  mutable std::shared_ptr<TransposeState> transpose_ =
      std::make_shared<TransposeState>();
};

}  // namespace qrank

#endif  // QRANK_GRAPH_CSR_GRAPH_H_

// Fused allocation-free PageRank pull sweep.
//
// The seed Jacobi engine walked the graph four times per iteration
// (dangling reduce, out-share scatter, pull pass, residual reduce) and
// sized a fresh partial-sum vector inside every reduce. This kernel
// fuses all of it into ONE pass over the rows: computing next[i] also
// accumulates the L1 residual, banks next[i] into the *next*
// iteration's dangling sum (so the leading reduce disappears), and
// writes next[i] * inv_outdeg[i] into a double-buffered out-share
// array (so the scatter pass disappears). Every buffer — iterates,
// out-shares, reduce scratch — is allocated once in the constructor;
// Sweep() itself performs no heap allocation (asserted by
// tests/rank/kernel_alloc_test.cc).
//
// Rows are partitioned by PullSweepBoundaries: fixed uniform node
// blocks, or edge-balanced blocks of ~equal in-edge weight found by
// binary search over the transpose CSR offsets. Both depend only on
// (graph, grain), never the thread count, and per-block partials fold
// through the fixed pairwise tree of common/parallel_for.h — so scores
// are bit-identical for every --threads value (the substrate's
// determinism contract, load-bearing for the quality estimator).

#ifndef QRANK_RANK_PAGERANK_KERNEL_H_
#define QRANK_RANK_PAGERANK_KERNEL_H_

#include <span>
#include <vector>

#include "common/parallel_for.h"
#include "graph/csr_graph.h"
#include "rank/pagerank.h"
#include "rank/sweep_ops.h"

namespace qrank {
namespace rank_internal {

/// The fixed row partition a pull sweep runs over. kNodeBalanced gives
/// the uniform grain-sized blocks of ParallelForBlocks; kEdgeBalanced
/// weights row i by in_degree(i) + 1 and balances total weight across
/// the same number of blocks (building the transpose if absent).
/// Deterministic in (graph, partition, grain).
std::vector<size_t> PullSweepBoundaries(const CsrGraph& graph,
                                        SweepPartition partition,
                                        size_t grain);

/// The same partition written into `bounds`, reusing its storage: no
/// allocation once it has held as many blocks.
void PullSweepBoundaries(const CsrGraph& graph, SweepPartition partition,
                         size_t grain, std::vector<size_t>* bounds);

class PageRankKernel {
 public:
  /// Readies every buffer the iteration needs and builds the graph's
  /// transpose (so the O(E) build lands outside the timed sweeps).
  /// `graph` and `teleport` must outlive the kernel; `initial` is the
  /// first iterate (probability scale). Reads damping, num_threads and
  /// partition from `options`.
  PageRankKernel(const CsrGraph& graph, const PageRankOptions& options,
                 const std::vector<double>& teleport,
                 std::vector<double> initial);

  /// One fused Jacobi application: x <- F(x). Returns the L1 residual
  /// ||x_new - x_old||_1. Allocation-free.
  double Sweep();

  const std::vector<double>& scores() const { return x_; }
  std::vector<double> TakeScores() { return std::move(x_); }
  const std::vector<size_t>& boundaries() const { return bounds_; }

 private:
  const NodeId n_;
  const double alpha_;
  const std::vector<double>& v_;  // teleport distribution
  ParallelOptions par_;
  std::vector<size_t> bounds_;  // fixed sweep partition, n_+... boundaries

  std::span<const size_t> in_offsets_;
  std::span<const NodeId> in_sources_;
  SweepFuncs funcs_;  // resolved ISA variant (see sweep_ops.h)
  std::vector<double> inv_outdeg_;  // 0 for dangling rows

  std::vector<double> x_;
  std::vector<double> next_;
  std::vector<double> out_share_;       // x_[u] * inv_outdeg_[u]
  std::vector<double> next_out_share_;  // double buffer, swapped per sweep
  std::vector<double> reduce_scratch_;  // per-block partials, reused
  double dangling_;  // sum of x_[u] over dangling u, carried sweep-to-sweep
};

}  // namespace rank_internal
}  // namespace qrank

#endif  // QRANK_RANK_PAGERANK_KERNEL_H_

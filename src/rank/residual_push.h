// ResidualPushTracker — warm PageRank by residual push on the
// dangling-free linear system.
//
// With a uniform teleport and dangling mass sent along it, PageRank is
// the normalization of the solution y of the sparse system
//
//   (I − αA) y = (1 − α)·1,   (A y)_i = Σ_{u→i} y_u / d_u,
//
// where A is the substochastic link matrix: a dangling page sends
// nothing (Del Corso, Gullì & Romani, "Fast PageRank Computation via a
// Sparse Linear System", Internet Math. 2005). The teleport is taken at
// v = 1 per page (the mass-n scale), so the system has no global mass
// mode and a page birth adds one local residual without rescaling
// anything.
//
// The tracker keeps y and the residual r = (1−α)·1 + αAy − y across
// generations of a growing graph. An edge change at page u moves r only
// at u's old and new out-neighbours, so a generation patches r there
// and drains a Gauss–Southwell FIFO of pages with |r_i| > ε: add r_i to
// y_i and spread α·r_i/d_i over i's out-neighbours (Andersen, Chung &
// Lang, FOCS 2006). The work follows the pages an edge change actually
// perturbs instead of sweeping all n rows.
//
// Exactness contract: a solve is declared converged only after one
// exact O(m) residual pass, which also replaces the maintained r and so
// resyncs its floating-point drift. Because ‖(I − αA)⁻¹‖₁ ≤ 1/(1−α)
// and normalization at most doubles a distance,
//
//   ‖x − x*‖₁ ≤ 2‖r‖₁ / ((1−α)‖y‖₁)        (probability scale),
//
// and the solve accepts only when that certificate is at most
// α·tolerance/(1−α) — the bound the sweeping engines meet. Pushing down
// to ε = α·tolerance·‖y‖₁/(2n) makes the certificate hold as soon as
// the FIFO drains; if the exact pass still rejects it, every page over
// ε is requeued and pushed again, bounded by max_iterations passes.
//
// Determinism: the push is serial and the exact pass runs over the
// fixed PullSweepBoundaries partition with tree-reduced norms, so the
// scores are bit-identical for every num_threads value.
//
// The first Solve on a tracker is a cold start: ComputeDeltaPageRank
// with an empty frontier, seeded into y by the scaling below. Every
// later Solve is warm and allocation-free unless the page count grows.

#ifndef QRANK_RANK_RESIDUAL_PUSH_H_
#define QRANK_RANK_RESIDUAL_PUSH_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "graph/csr_graph.h"
#include "graph/graph_delta.h"
#include "rank/delta_pagerank.h"
#include "rank/sweep_ops.h"

namespace qrank {

/// The work and the certificate of one ResidualPushTracker::Solve.
struct ResidualPushStats {
  /// Pages whose residual was pushed into y.
  uint64_t pushes = 0;
  /// Adjacency entries read: the patch, the pushes, and every exact
  /// pass (m in-edges each). A cold start does not count the engine's
  /// own sweeps.
  uint64_t edge_reads = 0;
  /// Exact O(m) residual passes (>= 1 per solve).
  uint32_t residual_passes = 0;
  /// Sweeps of the cold-start engine (0 on a warm solve).
  uint32_t cold_iterations = 0;
  /// The last pass certified the answer.
  bool converged = false;
  /// 2‖r‖₁ / ((1−α)‖y‖₁): a bound on the L1 distance of the returned
  /// scores from the fixed point, on the probability scale.
  double certified_bound = 0.0;
};

class ResidualPushTracker {
 public:
  /// `options.base` supplies damping, tolerance, max_iterations (the cap
  /// on exact passes per solve), scale, num_threads, partition and
  /// kernel; the whole struct drives the cold-start engine. Validated
  /// by the first Solve.
  explicit ResidualPushTracker(DeltaPageRankOptions options);

  /// Brings the tracked solution to `graph` and writes its scores, on
  /// the requested scale, into `scores` (resized to graph.num_nodes();
  /// no allocation when it already has the capacity).
  ///
  /// The first call on a tracker with pages is a cold start and ignores
  /// `delta`. Every later call needs the delta that turned the previous
  /// call's graph into `graph`: old_num_nodes equal to the tracked page
  /// count and new_num_nodes to graph.num_nodes(). A shrinking delta,
  /// a mismatched one, or a personalized teleport is InvalidArgument.
  /// With base.require_convergence an uncertified result is
  /// NotConverged; otherwise it is returned with converged = false and
  /// the next Solve keeps pushing from where this one stopped.
  Result<ResidualPushStats> Solve(const CsrGraph& graph,
                                  const GraphDelta& delta,
                                  std::vector<double>* scores);

  /// Pages tracked (0 until the first Solve on a non-empty graph).
  NodeId num_nodes() const { return static_cast<NodeId>(y_.size()); }

 private:
  /// Seeds y from a cold engine solve (validating the options); the
  /// solve loop's first exact pass then sets r.
  Status ColdStart(const CsrGraph& graph, ResidualPushStats* stats);
  /// Moves r by the delta's edge changes and queues births and every
  /// page pushed over eps_.
  void Patch(const CsrGraph& graph, const GraphDelta& delta,
             ResidualPushStats* stats);
  /// Gauss–Southwell drain of the FIFO down to eps_.
  void Drain(const CsrGraph& graph, ResidualPushStats* stats);
  /// Exact r over the whole graph; sets r_norm_ and y_norm_.
  void ExactPass(const CsrGraph& graph, ResidualPushStats* stats);
  /// Queues every page whose exact residual is over eps_.
  void Requeue();
  void Enqueue(NodeId page);
  /// ε = α·tolerance·‖y‖₁ / (2n) from the last exact pass.
  void UpdateEpsilon();
  /// Grows every per-page array to `n` pages (births: y = 0, r = 1−α).
  void Grow(NodeId n);

  const DeltaPageRankOptions options_;
  const rank_internal::RowPullFn row_pull_;  // the exact pass's fold

  std::vector<double> y_;
  std::vector<double> r_;
  std::vector<double> share_;  // y_u / d_u, rebuilt by each exact pass
  std::vector<uint8_t> queued_;
  // FIFO ring of capacity n: queued_ admits each page at most once, so
  // occupancy never exceeds n.
  std::vector<NodeId> ring_;
  size_t head_ = 0;
  size_t count_ = 0;

  std::vector<size_t> bounds_;  // exact-pass partition of the last graph
  std::vector<double> reduce_scratch_;
  double eps_ = 0.0;
  double r_norm_ = 0.0;  // ‖r‖₁ and ‖y‖₁ of the last exact pass
  double y_norm_ = 0.0;
};

}  // namespace qrank

#endif  // QRANK_RANK_RESIDUAL_PUSH_H_

#include "rank/residual_push.h"

#include <array>
#include <cmath>
#include <span>
#include <string>
#include <utility>

#include "audit/audit.h"
#include "common/annotations.h"
#include "common/logging.h"
#include "common/parallel_for.h"
#include "rank/pagerank_kernel.h"

namespace qrank {

ResidualPushTracker::ResidualPushTracker(DeltaPageRankOptions options)
    : options_(std::move(options)),
      row_pull_(rank_internal::ResolveSweepFuncs(
                    rank_internal::KernelVariantLevel(options_.base.kernel))
                    .row_pull) {}

Result<ResidualPushStats> ResidualPushTracker::Solve(
    const CsrGraph& graph, const GraphDelta& delta,
    std::vector<double>* scores) {
  if (!options_.base.personalization.empty()) {
    return Status::InvalidArgument(
        "residual push tracks the uniform-teleport system only");
  }
  const NodeId n = graph.num_nodes();
  ResidualPushStats stats;
  if (y_.empty()) {
    if (n == 0) {
      scores->clear();
      stats.converged = true;
      return stats;
    }
    QRANK_RETURN_NOT_OK(ColdStart(graph, &stats));
  } else {
    if (delta.new_num_nodes < delta.old_num_nodes) {
      return Status::InvalidArgument(
          "residual push tracks a growing graph; the delta shrinks it");
    }
    if (delta.old_num_nodes != num_nodes() || delta.new_num_nodes != n) {
      return Status::InvalidArgument(
          "delta does not lead from the tracked graph to this one");
    }
    Patch(graph, delta, &stats);
  }

  const double alpha = options_.base.damping;
  const double limit = alpha * options_.base.tolerance / (1.0 - alpha);
  for (;;) {
    Drain(graph, &stats);
    ExactPass(graph, &stats);
    stats.certified_bound = 2.0 * r_norm_ / ((1.0 - alpha) * y_norm_);
    if (stats.certified_bound <= limit) {
      stats.converged = true;
      break;
    }
    if (stats.residual_passes >= options_.base.max_iterations) break;
    Requeue();
  }
  if (!stats.converged && options_.base.require_convergence) {
    return Status::NotConverged("residual push did not certify within " +
                                std::to_string(stats.residual_passes) +
                                " residual passes");
  }

  const double mass =
      options_.base.scale == ScaleConvention::kTotalMassN ? n : 1.0;
  const double factor = mass / y_norm_;
  scores->resize(n);  // no allocation once the caller's vector holds n
  ParallelOptions par;
  par.num_threads = options_.base.num_threads;
  ParallelForPartition(
      bounds_,
      [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) (*scores)[i] = y_[i] * factor;
      },
      par);

  if constexpr (QRANK_AUDIT_LEVEL >= 2) {
    if (stats.converged) {
      AuditContext ctx;
      ctx.graph = &graph;
      ctx.scores = scores;
      ctx.damping = alpha;
      ctx.tolerance = options_.base.tolerance;
      ctx.declared_converged = true;
      const Result<AuditReport> audit =
          RunAuditValidator("engine.residual", ctx);
      QRANK_CHECK(audit.ok() && audit.value().ok())
          << "certified residual-push scores fail the fixed-point "
          << "re-check: "
          << (audit.ok() ? audit.value().ToString()
                         : audit.status().ToString());
    }
  }
  return stats;
}

Status ResidualPushTracker::ColdStart(const CsrGraph& graph,
                                      ResidualPushStats* stats) {
  DeltaPageRankOptions cold = options_;
  cold.base.scale = ScaleConvention::kProbability;
  cold.base.require_convergence = false;
  QRANK_ASSIGN_OR_RETURN(DeltaPageRankResult seed,
                         ComputeDeltaPageRank(graph, {}, cold));
  stats->cold_iterations = seed.base.iterations;

  // The probability-scale fixed point x satisfies
  //   x = αAx + (1 − α + α·δ)/n · 1,  δ = dangling mass of x,
  // so y = x·n(1 − α)/(1 − α + α·δ) solves the v = 1 system exactly
  // (dangling pages included). The first exact pass then measures what
  // the engine's own tolerance left over.
  const NodeId n = graph.num_nodes();
  const double alpha = options_.base.damping;
  double dangling = 0.0;
  for (NodeId u = 0; u < n; ++u) {
    if (graph.OutDegree(u) == 0) dangling += seed.base.scores[u];
  }
  const double scale = static_cast<double>(n) * (1.0 - alpha) /
                       (1.0 - alpha + alpha * dangling);
  y_ = std::move(seed.base.scores);
  for (double& value : y_) value *= scale;
  r_.assign(n, 0.0);
  share_.assign(n, 0.0);
  queued_.assign(n, 0);
  ring_.assign(n, 0);
  head_ = count_ = 0;
  return Status::OK();
}

void ResidualPushTracker::Grow(NodeId n) {
  // The FIFO is empty between solves, so the ring restarts at slot 0.
  QRANK_AUDIT1(count_ == 0) << "residual FIFO not drained between solves";
  const double birth_residual = 1.0 - options_.base.damping;
  y_.resize(n, 0.0);
  r_.resize(n, birth_residual);
  share_.resize(n, 0.0);
  queued_.resize(n, 0);
  ring_.resize(n, 0);
  head_ = 0;
}

void ResidualPushTracker::Patch(const CsrGraph& graph, const GraphDelta& delta,
                                ResidualPushStats* stats) {
  const NodeId old_n = num_nodes();
  const NodeId n = graph.num_nodes();
  if (n != old_n) Grow(n);
  UpdateEpsilon();
  // A newborn page has y = 0 and r = 1 − α plus whatever its new
  // in-links bring, which the source patches below add.
  for (NodeId page = old_n; page < n; ++page) Enqueue(page);

  const double alpha = options_.base.damping;
  auto bump = [this](NodeId w, double amount) {
    r_[w] += amount;
    if (!queued_[w] && std::fabs(r_[w]) > eps_) Enqueue(w);
  };
  const std::vector<Edge>& added = delta.added;
  const std::vector<Edge>& removed = delta.removed;
  size_t a = 0;
  size_t b = 0;
  while (a < added.size() || b < removed.size()) {
    // Both lists ascend by (src, dst): walk them one source at a time.
    NodeId u = a < added.size() ? added[a].src : removed[b].src;
    if (b < removed.size() && removed[b].src < u) u = removed[b].src;
    size_t a_end = a;
    while (a_end < added.size() && added[a_end].src == u) ++a_end;
    size_t b_end = b;
    while (b_end < removed.size() && removed[b_end].src == u) ++b_end;

    // u used to send α·y_u/d_old to each old out-neighbour and now
    // sends α·y_u/d_new to each new one; the residual moves by the
    // difference. A newborn source (y_u = 0) moves nothing.
    const double yu = y_[u];
    if (yu != 0.0) {
      const std::span<const NodeId> out = graph.OutNeighbors(u);
      const size_t d_new = out.size();
      const size_t d_old = d_new - (a_end - a) + (b_end - b);
      const double c_new = d_new > 0 ? alpha * yu / d_new : 0.0;
      const double c_old = d_old > 0 ? alpha * yu / d_old : 0.0;
      if (d_new == d_old) {
        // Kept neighbours see the same share; only the changed edges.
        for (size_t k = a; k < a_end; ++k) bump(added[k].dst, c_new);
        stats->edge_reads += a_end - a;
      } else {
        size_t k = a;
        for (const NodeId w : out) {
          const bool is_added = k < a_end && added[k].dst == w;
          if (is_added) ++k;
          bump(w, is_added ? c_new : c_new - c_old);
        }
        QRANK_AUDIT1(k == a_end)
            << "delta adds an edge the graph does not hold (source " << u
            << ")";
        stats->edge_reads += d_new;
      }
      for (size_t k = b; k < b_end; ++k) bump(removed[k].dst, -c_old);
      stats->edge_reads += b_end - b;
    }
    a = a_end;
    b = b_end;
  }
}

void ResidualPushTracker::Enqueue(NodeId page) {
  size_t tail = head_ + count_;
  if (tail >= ring_.size()) tail -= ring_.size();
  ring_[tail] = page;
  queued_[page] = 1;
  ++count_;
}

QRANK_HOT void ResidualPushTracker::Drain(const CsrGraph& graph,
                                          ResidualPushStats* stats) {
  const double alpha = options_.base.damping;
  const double eps = eps_;
  const size_t capacity = ring_.size();
  double* const r = r_.data();
  const size_t* const off = graph.offsets().data();
  const NodeId* const dst = graph.targets().data();
  uint64_t pushes = 0;
  uint64_t reads = 0;
  while (count_ > 0) {
    // The FIFO names the next pages to push, so their random reads can
    // start early: the row offset eight pops ahead, the adjacency row
    // and residual four ahead. This cut drain time by a quarter on
    // ~2,000-edge deltas of the 131k-page site graph (4-vCPU Xeon).
    if (count_ > 8) {
      size_t ahead = head_ + 8;
      if (ahead >= capacity) ahead -= capacity;
      __builtin_prefetch(off + ring_[ahead]);
    }
    if (count_ > 4) {
      size_t ahead = head_ + 4;
      if (ahead >= capacity) ahead -= capacity;
      __builtin_prefetch(dst + off[ring_[ahead]]);
      __builtin_prefetch(r + ring_[ahead], 1);
    }
    const NodeId i = ring_[head_];
    if (++head_ == capacity) head_ = 0;
    --count_;
    queued_[i] = 0;
    const double ri = r[i];
    // Pages whose residual cancelled while they waited are skipped.
    if (!(std::fabs(ri) > eps)) continue;
    y_[i] += ri;
    r[i] = 0.0;
    ++pushes;
    const std::span<const NodeId> out = graph.OutNeighbors(i);
    if (out.empty()) continue;  // dangling: the system drops the mass
    reads += out.size();
    const double spread = alpha * ri / static_cast<double>(out.size());
    for (const NodeId w : out) {
      r[w] += spread;
      if (!queued_[w] && std::fabs(r[w]) > eps) Enqueue(w);
    }
  }
  stats->pushes += pushes;
  stats->edge_reads += reads;
}

QRANK_HOT void ResidualPushTracker::ExactPass(const CsrGraph& graph,
                                              ResidualPushStats* stats) {
  graph.BuildTranspose();
  rank_internal::PullSweepBoundaries(graph, options_.base.partition,
                                     ParallelOptions{}.grain, &bounds_);
  ParallelOptions par;
  par.num_threads = options_.base.num_threads;
  ParallelForPartition(
      bounds_,
      [&](size_t lo, size_t hi) {
        for (size_t u = lo; u < hi; ++u) {
          const uint32_t d = graph.OutDegree(static_cast<NodeId>(u));
          share_[u] = d > 0 ? y_[u] / d : 0.0;
        }
      },
      par);
  const double alpha = options_.base.damping;
  const std::array<double, 2> norms = ParallelReducePartition<2>(
      bounds_,
      [&](size_t lo, size_t hi) {
        double r_sum = 0.0;
        double y_sum = 0.0;
        for (size_t i = lo; i < hi; ++i) {
          const std::span<const NodeId> in =
              graph.InNeighbors(static_cast<NodeId>(i));
          const double pull = row_pull_(in.data(), in.size(), share_.data());
          const double ri = (1.0 - alpha) + alpha * pull - y_[i];
          r_[i] = ri;
          r_sum += std::fabs(ri);
          y_sum += std::fabs(y_[i]);
        }
        return std::array<double, 2>{r_sum, y_sum};
      },
      &reduce_scratch_, par);
  r_norm_ = norms[0];
  y_norm_ = norms[1];
  UpdateEpsilon();
  ++stats->residual_passes;
  stats->edge_reads += graph.num_edges();
}

void ResidualPushTracker::Requeue() {
  const NodeId n = num_nodes();
  for (NodeId i = 0; i < n; ++i) {
    if (std::fabs(r_[i]) > eps_) Enqueue(i);
  }
}

void ResidualPushTracker::UpdateEpsilon() {
  eps_ = options_.base.damping * options_.base.tolerance * y_norm_ /
         (2.0 * static_cast<double>(num_nodes()));
}

}  // namespace qrank

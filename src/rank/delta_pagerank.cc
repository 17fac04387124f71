#include "rank/delta_pagerank.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <span>

#include "audit/audit.h"
#include "common/logging.h"
#include "common/parallel_for.h"
#include "rank/internal.h"
#include "rank/pagerank_kernel.h"
#include "rank/rank_vector.h"

namespace qrank {

using rank_internal::FinishResult;
using rank_internal::TeleportDistribution;
using rank_internal::ValidateOptions;

namespace {

// Per-row outcome of one sweep; written disjointly in the row pass so the
// freeze bookkeeping can run as a separate deterministic pass. Rows that
// were skipped (frozen on a partial sweep) keep a stale status — the
// freeze pass identifies them through `frozen` instead, so the row pass
// never writes O(n) bytes for them.
enum RowStatus : uint8_t {
  kConverged = 0,  // recomputed, drift account still under budget
  kMoved = 1,      // recomputed, crossed the budget: announce downstream
};

}  // namespace

Result<DeltaPageRankResult> ComputeDeltaPageRank(
    const CsrGraph& graph, const std::vector<uint8_t>& dirty_frontier,
    const DeltaPageRankOptions& options) {
  QRANK_RETURN_NOT_OK(ValidateOptions(graph, options.base));
  if (options.freeze_threshold <= 0.0 || options.freeze_threshold >= 1.0) {
    return Status::InvalidArgument("freeze_threshold must be in (0, 1)");
  }
  if (options.full_sweep_period == 0) {
    return Status::InvalidArgument("full_sweep_period must be >= 1");
  }
  const NodeId n = graph.num_nodes();
  if (!dirty_frontier.empty() && dirty_frontier.size() != n) {
    return Status::InvalidArgument(
        "dirty_frontier must be empty or have num_nodes entries");
  }

  DeltaPageRankResult result;
  result.drift_budget = options.freeze_threshold * options.base.tolerance;
  if (n == 0) {
    result.base.converged = true;
    return result;
  }

  const double alpha = options.base.damping;
  const std::vector<double> v = TeleportDistribution(graph, options.base);
  std::vector<double> x = rank_internal::InitialIterate(options.base, v);

  graph.BuildTranspose();
  ParallelOptions par;
  par.num_threads = options.base.num_threads;

  // Per-row pulls run the dispatched fold shared with the batch kernel
  // (rank/sweep_ops.h): same 4-accumulator oracle for scalar, same
  // tolerance story for AVX-512.
  const rank_internal::SweepFuncs sweep_funcs =
      rank_internal::ResolveSweepFuncs(
          rank_internal::KernelVariantLevel(options.base.kernel));

  // Fixed row partition shared by every pass and reduce of the solve
  // (edge-balanced by default, so the hub blocks of a power-law graph
  // don't serialize the sweep), plus one reduce-scratch buffer grown
  // once — the iteration loop below performs no allocations.
  const std::vector<size_t> bounds =
      rank_internal::PullSweepBoundaries(graph, options.base.partition,
                                         par.grain);
  std::vector<double> reduce_scratch;

  std::vector<double> inv_outdeg(n, 0.0);
  bool has_dangling = false;
  for (NodeId u = 0; u < n; ++u) {
    uint32_t d = graph.OutDegree(u);
    if (d > 0) {
      inv_outdeg[u] = 1.0 / static_cast<double>(d);
    } else {
      has_dangling = true;
    }
  }

  // Per-row drift budget. A computed row accumulates its un-announced
  // movement in `slack`; only when the accumulation crosses the budget
  // does it count as "moved" (waking its out-neighbors and resetting the
  // account). The total movement ever hidden from downstream rows is
  // therefore bounded by n * budget = freeze_threshold * tolerance,
  // independent of iteration count or spectral gap — so full-sweep
  // residuals can always reach tolerance and no stall is possible —
  // while a page whose entire perturbation influence stays below its
  // budget never wakes at all, which is where the savings come from.
  const double budget = options.freeze_threshold * options.base.tolerance /
                        static_cast<double>(n);
  std::vector<double> slack(n, 0.0);

  // An empty frontier means "everything dirty": a cold start.
  std::vector<uint8_t> frozen(n, 0);
  if (!dirty_frontier.empty()) {
    for (NodeId i = 0; i < n; ++i) frozen[i] = dirty_frontier[i] ? 0 : 1;
  }
  std::vector<uint8_t> status(n, kMoved);
  std::vector<uint8_t> woken(n, 0);

  // The share a page pushes to each out-neighbor, as of the sweep's
  // start. Kept persistent and refreshed only for recomputed rows (a
  // frozen page's share is frozen with it), so partial sweeps cost
  // O(awake), not O(n). `share_cur` is the same array with this sweep's
  // recomputed rows already written: the row pass writes it, the freeze
  // pass copies it back, so the two agree between sweeps.
  std::vector<double> out_share(n, 0.0);
  ParallelForPartition(
      bounds,
      [&](size_t lo, size_t hi) {
        for (size_t u = lo; u < hi; ++u) out_share[u] = x[u] * inv_outdeg[u];
      },
      par);
  std::vector<double> share_cur = out_share;

  auto exact_dangling = [&](const std::vector<double>& scores) {
    if (!has_dangling) return 0.0;
    return ParallelReducePartition<1>(
        bounds,
        [&](size_t lo, size_t hi) {
          double sum = 0.0;
          for (size_t u = lo; u < hi; ++u) {
            if (inv_outdeg[u] == 0.0) sum += scores[u];
          }
          return std::array<double, 1>{sum};
        },
        &reduce_scratch, par)[0];
  };

  // Dangling mass (footnote 2), redistributed teleport-shaped. Tracked
  // incrementally across sweeps (tree-reduced changes of recomputed
  // dangling rows, summed in the row pass: deterministic); recomputed
  // exactly at the start of full sweeps, so the convergence check always
  // evaluates the true operator.
  double dangling = exact_dangling(x);

  // Update of row i in the block starting at `lo`, written back in
  // place. In-neighbors in [lo, i) are read from `own`, every other one
  // from the sweep-start snapshot `out_share`. With own = share_cur
  // that is block Gauss–Seidel: a row sees the fresh shares of the
  // earlier rows of its own block, which only this block's task writes,
  // and nothing of any other block's progress — so the iterates are a
  // function of the fixed partition, never of the thread count. In-
  // neighbor lists ascend, so the pull is three folds over contiguous
  // runs, summed in run order. With own = out_share it is a Jacobi step
  // and one fold over the whole row.
  auto update_row = [&](size_t i, size_t lo, double base_mass,
                        const double* own) {
    const std::span<const NodeId> in =
        graph.InNeighbors(static_cast<NodeId>(i));
    const NodeId* first = in.data();
    const NodeId* last = first + in.size();
    double pull;
    if (own == out_share.data()) {
      pull = sweep_funcs.row_pull(first, in.size(), own);
    } else {
      const NodeId* own_begin = std::lower_bound(first, last, lo);
      const NodeId* own_end = std::lower_bound(own_begin, last, i);
      pull = sweep_funcs.row_pull(first, own_begin - first, out_share.data());
      pull += sweep_funcs.row_pull(own_begin, own_end - own_begin, own);
      pull += sweep_funcs.row_pull(own_end, last - own_end, out_share.data());
    }
    const double val = base_mass * v[i] + alpha * pull;
    const double delta = std::fabs(val - x[i]);
    x[i] = val;
    share_cur[i] = val * inv_outdeg[i];
    return delta;
  };

  // Partial sweeps are block Gauss–Seidel, which does not conserve mass,
  // so the final NormalizeSum can move the iterate up to as far again as
  // the last full sweep's residual. Stopping at tolerance / 2 keeps the
  // returned vector within alpha * tolerance / (1 - alpha) of the fixed
  // point — the bound the Jacobi engines meet when they stop at
  // tolerance.
  const double stop = options.base.tolerance / 2;

  // A partial-sweep residual below `stop` means the awake set has
  // converged; schedule a full sweep immediately (rather than waiting
  // for the period boundary) to run the exact convergence check.
  bool force_full_sweep = false;
  for (uint32_t iter = 1; iter <= options.base.max_iterations; ++iter) {
    const bool full_sweep =
        (iter % options.full_sweep_period == 0) || force_full_sweep;
    if (full_sweep) dangling = exact_dangling(x);
    const double base_mass = 1.0 - alpha + alpha * dangling;
    const double* own = full_sweep ? out_share.data() : share_cur.data();

    // Row pass, fused with the residual and dangling-change reductions
    // (tree reduces, so the sums are schedule-independent): frozen rows
    // are skipped outright on partial sweeps. The update count is an
    // exact integer, so a relaxed atomic add per block keeps it
    // deterministic too.
    std::atomic<uint64_t> updates{0};
    const std::array<double, 2> sums = ParallelReducePartition<2>(
        bounds,
        [&](size_t lo, size_t hi) {
          double sum = 0.0;
          double dangling_change = 0.0;
          uint64_t count = 0;
          for (size_t i = lo; i < hi; ++i) {
            if (frozen[i] && !full_sweep) continue;
            const double old = x[i];
            const double delta = update_row(i, lo, base_mass, own);
            if (inv_outdeg[i] == 0.0) dangling_change += x[i] - old;
            sum += delta;
            ++count;
            slack[i] += delta;
            if (slack[i] >= budget) {
              status[i] = kMoved;
              slack[i] = 0.0;
              // Wake pass, fused: a moved page's out-neighbors see a
              // changed share x/c next iteration, so they must be
              // recomputed. woken[] is all-zero at row-pass entry and
              // only `1` is ever written (relaxed atomics; nothing reads
              // it until the freeze pass), so the final flags are
              // schedule-independent.
              for (NodeId w : graph.OutNeighbors(static_cast<NodeId>(i))) {
                std::atomic_ref<uint8_t>(woken[w]).store(
                    1, std::memory_order_relaxed);
              }
            } else {
              status[i] = kConverged;
            }
          }
          updates.fetch_add(count, std::memory_order_relaxed);
          return std::array<double, 2>{sum, dangling_change};
        },
        &reduce_scratch, par);
    result.base.residual = sums[0];
    result.node_updates += updates.load(std::memory_order_relaxed);
    dangling += sums[1];

    // Freeze update, woken reset, and out_share refresh for recomputed
    // rows: a page stays/becomes frozen iff it did not cross its budget
    // and no in-neighbor woke it. Rows skipped this sweep only need a
    // write when someone woke them, so the steady-state cost is reads.
    ParallelForPartition(
        bounds,
        [&](size_t lo, size_t hi) {
          for (size_t i = lo; i < hi; ++i) {
            if (frozen[i] && !full_sweep) {  // skipped this sweep
              if (woken[i]) {
                frozen[i] = 0;
                woken[i] = 0;
              }
              continue;
            }
            frozen[i] = (status[i] != kMoved) && !woken[i];
            woken[i] = 0;
            out_share[i] = share_cur[i];
          }
        },
        par);

    result.base.iterations = iter;
    // Exactness contract: only a full sweep measures the true residual
    // ||F(x) - x||_1; partial-sweep residuals ignore frozen rows.
    if (full_sweep && result.base.residual < stop) {
      result.base.converged = true;
      break;
    }
    force_full_sweep = result.base.residual < stop;
  }

  // Iterations exhausted between full sweeps: run one final full update
  // so the reported residual is honest. out_share is current: the
  // freeze pass refreshed every row the last sweep recomputed.
  if (!result.base.converged) {
    dangling = exact_dangling(x);
    const double base_mass = 1.0 - alpha + alpha * dangling;
    result.base.residual = ParallelReducePartition<1>(
        bounds,
        [&](size_t lo, size_t hi) {
          double sum = 0.0;
          for (size_t i = lo; i < hi; ++i) {
            sum += update_row(i, lo, base_mass, out_share.data());
          }
          return std::array<double, 1>{sum};
        },
        &reduce_scratch, par)[0];
    result.node_updates += n;
    if (result.base.residual < stop) result.base.converged = true;
  }

  for (NodeId i = 0; i < n; ++i) {
    if (frozen[i]) ++result.frozen_at_end;
  }
  // Expose the drift ledger: every page's account is strictly under its
  // budget/n share (crossing it resets the account to zero and wakes the
  // out-neighbors), so the total must come in under the aggregate
  // budget. This is the invariant the exactness contract rests on.
  for (NodeId i = 0; i < n; ++i) result.drift_ledger_total += slack[i];
  QRANK_AUDIT1(result.drift_ledger_total <=
               result.drift_budget * (1.0 + 1e-9))
      << "drift ledger " << result.drift_ledger_total
      << " overran its budget " << result.drift_budget;
  // Frozen rows and Gauss–Seidel partial sweeps break Jacobi's automatic
  // mass conservation; restore the probability scale before applying the
  // requested convention.
  NormalizeSum(&x, 1.0);
  result.base.scores = std::move(x);
  QRANK_RETURN_NOT_OK(FinishResult(graph, options.base, &result.base));
  if constexpr (QRANK_AUDIT_LEVEL >= 2) {
    // Declared convergence came from a full sweep, so the scores are one
    // exact Jacobi application away from residual < tolerance; the final
    // renormalization can shift them by at most the hidden drift, which
    // the inflated tolerance below accounts for.
    if (result.base.converged && options.base.personalization.empty()) {
      AuditContext ctx;
      ctx.graph = &graph;
      ctx.scores = &result.base.scores;
      ctx.damping = options.base.damping;
      ctx.tolerance =
          options.base.tolerance * (1.0 + options.freeze_threshold);
      ctx.declared_converged = true;
      ctx.drift_ledger_total = result.drift_ledger_total;
      ctx.drift_budget = result.drift_budget;
      const Result<AuditReport> audit =
          RunAuditValidator("engine.residual", ctx);
      QRANK_CHECK(audit.ok() && audit.value().ok())
          << "declared-converged delta scores fail the fixed-point "
          << "re-check: "
          << (audit.ok() ? audit.value().ToString()
                         : audit.status().ToString());
      const Result<AuditReport> drift = RunAuditValidator("engine.drift",
                                                          ctx);
      QRANK_CHECK(drift.ok() && drift.value().ok())
          << "drift ledger audit failed: "
          << (drift.ok() ? drift.value().ToString()
                         : drift.status().ToString());
    }
  }
  return result;
}

}  // namespace qrank

// Delta PageRank — incremental re-ranking after a small graph change.
//
// Combines two accelerations for the snapshot-series workload:
//  * warm start: iterate from the previous snapshot's converged vector
//    (base.initial_scores) instead of the teleport distribution;
//  * frozen-set iteration, the inverse of adaptive PageRank [11]: where
//    Kamvar et al. freeze pages as they converge, here pages *start*
//    frozen — except the delta's dirty frontier (pages whose in/out
//    links changed, plus new pages) — and are woken on demand. A frozen
//    page is not recomputed on partial sweeps but its value still feeds
//    its out-neighbors; each computed page banks the movement it has not
//    announced downstream and wakes its out-neighbors once the account
//    crosses its share of the drift budget (freeze_threshold *
//    tolerance / n), so perturbations propagate exactly as far as they
//    matter and the aggregate hidden movement is bounded by a fixed
//    fraction of the tolerance. Every full_sweep_period-th iteration
//    recomputes all pages (and a partial sweep whose residual already
//    meets the stopping threshold triggers one immediately) for the
//    exact check;
//  * block Gauss–Seidel partial sweeps: a recomputed row reads the
//    fresh values of the earlier rows of its own block of the fixed
//    sweep partition, and the sweep-start snapshot for every other
//    in-neighbor, which roughly halves the sweeps a warm solve takes.
//
// Exactness contract: convergence is declared ONLY on a full sweep, a
// plain Jacobi step, with L1 residual below base.tolerance / 2. Gauss–
// Seidel iterates do not conserve mass, and the final renormalization
// can double the distance to the fixed point, so the halved threshold
// keeps the returned scores within alpha * tolerance / (1 - alpha) of
// it — the bound the from-scratch engines meet. The frontier and the
// Gauss–Seidel reads affect only how much work the solve performs.
// (This is stricter than the adaptive engine's all-pages-frozen
// approximate stop.)
//
// Runs on the deterministic parallel substrate: scores are bit-identical
// for every base.num_threads value (fixed block partitions — which, not
// the thread count, shape the Gauss–Seidel iterate path — fixed-order
// per-row pulls, tree reductions; wake flags are write-only-true, so
// their final state is schedule-independent).

#ifndef QRANK_RANK_DELTA_PAGERANK_H_
#define QRANK_RANK_DELTA_PAGERANK_H_

#include <cstdint>
#include <vector>

#include "rank/pagerank.h"

namespace qrank {

struct DeltaPageRankOptions {
  PageRankOptions base;

  /// Fraction of the tolerance granted as total drift budget. Each page
  /// accumulates the movement it has not yet announced downstream and
  /// wakes its out-neighbors only when the account crosses
  /// freeze_threshold * tolerance / n, so the aggregate hidden movement
  /// is bounded by freeze_threshold * tolerance regardless of iteration
  /// count — convergence to base.tolerance is always reachable — while
  /// pages whose entire perturbation influence stays below their budget
  /// are never recomputed. Must be in (0, 1); larger values freeze more
  /// (cheaper sweeps) but leave less of the tolerance for the moving
  /// part.
  double freeze_threshold = 0.25;

  /// Every full_sweep_period-th iteration recomputes every page as a
  /// Jacobi step; convergence is only ever declared on such a sweep (one
  /// is also forced as soon as a partial residual drops under the
  /// stopping threshold). Full
  /// sweeps are what correct — and propagate, one hop per sweep — the
  /// sub-budget drift that frozen rows accumulate, so stretching the
  /// period trades cheaper iteration for a longer convergence tail at
  /// tight tolerances. Must be >= 1 (1 degenerates to plain warm-started
  /// Jacobi).
  uint32_t full_sweep_period = 8;
};

struct DeltaPageRankResult {
  PageRankResult base;
  /// Page-update operations actually performed; compare against
  /// iterations * num_nodes for the savings.
  uint64_t node_updates = 0;
  /// Pages frozen when iteration stopped.
  uint64_t frozen_at_end = 0;
  /// Movement banked but not yet announced downstream when iteration
  /// stopped (the sum of all per-page drift accounts). The freeze
  /// invariant keeps this strictly under `drift_budget`; the
  /// engine.drift audit validator re-checks exactly that.
  double drift_ledger_total = 0.0;
  /// freeze_threshold * base.tolerance — the aggregate drift the engine
  /// was allowed to hide.
  double drift_budget = 0.0;
};

/// `dirty_frontier` must be empty (= every page dirty; a cold start) or
/// have num_nodes entries, nonzero meaning the page starts unfrozen —
/// typically GraphDelta::DirtyFrontier(). Same option validation as
/// ComputePageRank; an empty graph yields an empty score vector.
Result<DeltaPageRankResult> ComputeDeltaPageRank(
    const CsrGraph& graph, const std::vector<uint8_t>& dirty_frontier,
    const DeltaPageRankOptions& options = {});

}  // namespace qrank

#endif  // QRANK_RANK_DELTA_PAGERANK_H_

// The paper's practical page-quality estimator (Equation 1, Section 8.2):
//
//   Q(p) = C * [PR(p,t3) - PR(p,t1)] / PR(p,t1) + PR(p,t3)
//
// computed from a series of PageRank observations, with the paper's edge
// rules:
//   * Pages whose PageRank moved consistently (monotone over all
//     observations) get the full formula — including consistent
//     *decreases* (negative relative increase), as in Section 8.2.
//   * Pages whose PageRank oscillated get I = 0, i.e. Q = current
//     PageRank ("when their PageRank values oscillate, it is difficult
//     to estimate this part", Section 9.1).
//   * Pages whose total relative change is below `min_relative_change`
//     are classified kStable; the estimator equals current PageRank and
//     the evaluation can exclude them (the paper reports results "only
//     for the pages whose PageRank values changed more than 5%").

#ifndef QRANK_CORE_QUALITY_ESTIMATOR_H_
#define QRANK_CORE_QUALITY_ESTIMATOR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/snapshot_series.h"

namespace qrank {

/// Trend of one page's PageRank across the observation snapshots.
enum class PageTrend : uint8_t {
  kRising = 0,       // strictly increasing across all observations
  kFalling = 1,      // strictly decreasing across all observations
  kOscillating = 2,  // mixed direction
  kStable = 3,       // |PR_last - PR_first| / PR_first < min_relative_change
};

struct QualityEstimatorOptions {
  /// The constant C of Equation 1. The paper used 0.1 ("the value 0.1
  /// showed the best result; small variations did not affect our result
  /// significantly").
  double relative_increase_weight = 0.1;

  /// Pages below this total relative PageRank change are kStable
  /// (paper: 5%).
  double min_relative_change = 0.05;

  /// Clamp estimates below at 0 (a deeply falling page can otherwise
  /// produce a negative quality, which has no meaning under
  /// Definition 1).
  bool clamp_negative = true;
};

struct QualityEstimate {
  /// Estimated quality per common page (same scale as the input
  /// PageRank vectors).
  std::vector<double> quality;
  /// Trend classification per page.
  std::vector<PageTrend> trend;
  /// Relative PageRank increase term per page ((PR_last-PR_first)/
  /// PR_first; 0 for oscillating/stable pages).
  std::vector<double> relative_increase;
  uint64_t num_rising = 0;
  uint64_t num_falling = 0;
  uint64_t num_oscillating = 0;
  uint64_t num_stable = 0;
};

/// Estimates quality from >= 2 PageRank observation vectors (the paper
/// uses the t1, t2, t3 snapshots; the first and last enter the formula,
/// the middle ones only the trend classification). All vectors must have
/// equal, non-zero size and strictly positive entries (PageRank with
/// damping < 1 is strictly positive).
Result<QualityEstimate> EstimateQuality(
    const std::vector<std::vector<double>>& pagerank_observations,
    const QualityEstimatorOptions& options = {});

/// The same estimator over views of the observation vectors (same
/// contract), so callers holding the vectors elsewhere — or estimating
/// over a prefix of each — need not copy them.
Result<QualityEstimate> EstimateQuality(
    std::span<const std::span<const double>> pagerank_observations,
    const QualityEstimatorOptions& options = {});

/// Convenience overload running on the observation prefix
/// series.pagerank(0) .. series.pagerank(num_observations - 1) of a
/// SnapshotSeries with computed PageRanks (the remaining snapshots are
/// typically held out as the "future" to predict).
Result<QualityEstimate> EstimateQuality(
    const SnapshotSeries& series, size_t num_observations,
    const QualityEstimatorOptions& options = {});

}  // namespace qrank

#endif  // QRANK_CORE_QUALITY_ESTIMATOR_H_

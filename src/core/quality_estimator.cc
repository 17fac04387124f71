#include "core/quality_estimator.h"

#include <algorithm>
#include <cmath>

namespace qrank {

Result<QualityEstimate> EstimateQuality(
    const std::vector<std::vector<double>>& pagerank_observations,
    const QualityEstimatorOptions& options) {
  const std::vector<std::span<const double>> views(
      pagerank_observations.begin(), pagerank_observations.end());
  return EstimateQuality(views, options);
}

Result<QualityEstimate> EstimateQuality(
    std::span<const std::span<const double>> pagerank_observations,
    const QualityEstimatorOptions& options) {
  if (pagerank_observations.size() < 2) {
    return Status::InvalidArgument("need at least 2 PageRank observations");
  }
  if (options.relative_increase_weight < 0.0) {
    return Status::InvalidArgument("relative_increase_weight must be >= 0");
  }
  if (options.min_relative_change < 0.0) {
    return Status::InvalidArgument("min_relative_change must be >= 0");
  }
  const size_t n = pagerank_observations.front().size();
  if (n == 0) {
    return Status::InvalidArgument("empty PageRank observation");
  }
  for (const auto& obs : pagerank_observations) {
    if (obs.size() != n) {
      return Status::InvalidArgument("observation sizes differ");
    }
    for (double v : obs) {
      if (!(v > 0.0) || !std::isfinite(v)) {
        return Status::InvalidArgument(
            "PageRank observations must be strictly positive and finite");
      }
    }
  }

  const auto& first = pagerank_observations.front();
  const auto& last = pagerank_observations.back();
  const size_t k = pagerank_observations.size();

  QualityEstimate est;
  est.quality.resize(n);
  est.trend.resize(n);
  est.relative_increase.assign(n, 0.0);

  for (size_t p = 0; p < n; ++p) {
    bool rising = true, falling = true;
    for (size_t i = 1; i < k; ++i) {
      double prev = pagerank_observations[i - 1][p];
      double cur = pagerank_observations[i][p];
      rising &= cur > prev;
      falling &= cur < prev;
    }
    double rel_change = (last[p] - first[p]) / first[p];

    PageTrend trend;
    if (std::fabs(rel_change) < options.min_relative_change) {
      trend = PageTrend::kStable;
    } else if (rising) {
      trend = PageTrend::kRising;
    } else if (falling) {
      trend = PageTrend::kFalling;
    } else {
      trend = PageTrend::kOscillating;
    }
    est.trend[p] = trend;

    double quality;
    switch (trend) {
      case PageTrend::kRising:
      case PageTrend::kFalling:
        // Equation 1: C * dPR/PR + PR.
        est.relative_increase[p] = rel_change;
        quality =
            options.relative_increase_weight * rel_change + last[p];
        break;
      case PageTrend::kOscillating:
      case PageTrend::kStable:
        // I = 0: the estimator degenerates to the current PageRank.
        quality = last[p];
        break;
    }
    if (options.clamp_negative && quality < 0.0) quality = 0.0;
    est.quality[p] = quality;

    switch (trend) {
      case PageTrend::kRising:
        ++est.num_rising;
        break;
      case PageTrend::kFalling:
        ++est.num_falling;
        break;
      case PageTrend::kOscillating:
        ++est.num_oscillating;
        break;
      case PageTrend::kStable:
        ++est.num_stable;
        break;
    }
  }
  return est;
}

Result<QualityEstimate> EstimateQuality(const SnapshotSeries& series,
                                        size_t num_observations,
                                        const QualityEstimatorOptions& options) {
  if (!series.has_pageranks()) {
    return Status::FailedPrecondition(
        "SnapshotSeries::ComputePageRanks has not run");
  }
  if (num_observations < 2 || num_observations > series.num_snapshots()) {
    return Status::InvalidArgument(
        "num_observations must be in [2, num_snapshots]");
  }
  std::vector<std::span<const double>> obs;
  obs.reserve(num_observations);
  for (size_t i = 0; i < num_observations; ++i) {
    obs.emplace_back(series.pagerank(i));
  }
  return EstimateQuality(obs, options);
}

}  // namespace qrank

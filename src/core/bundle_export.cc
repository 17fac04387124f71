#include "core/bundle_export.h"

#include <algorithm>
#include <span>
#include <utility>

namespace qrank {

namespace {

// Shared core of ExportScoreBundleFromObservations / ComputeWindowQuality:
// validate the window shape and build the Q̂ column (estimator over the
// common prefix, newest PR as fallback).
Result<std::vector<double>> WindowQuality(
    const std::vector<const std::vector<double>*>& observations,
    const QualityEstimatorOptions& options) {
  if (observations.empty() || observations.back()->empty()) {
    return Status::InvalidArgument(
        "need at least one non-empty PageRank observation");
  }
  for (size_t i = 1; i < observations.size(); ++i) {
    if (observations[i]->size() < observations[i - 1]->size()) {
      return Status::InvalidArgument(
          "observation sizes must be non-decreasing (pages are only born)");
    }
  }
  // Newest observation is both the PR column and the Q̂ fallback for
  // pages without a full-window history.
  std::vector<double> quality = *observations.back();
  const size_t common = observations.front()->size();
  if (observations.size() >= 2 && common > 0) {
    std::vector<std::span<const double>> prefixes;
    prefixes.reserve(observations.size());
    for (const std::vector<double>* observation : observations) {
      prefixes.emplace_back(observation->data(), common);
    }
    QRANK_ASSIGN_OR_RETURN(QualityEstimate estimate,
                           EstimateQuality(prefixes, options));
    std::copy(estimate.quality.begin(), estimate.quality.end(),
              quality.begin());
  }
  return quality;
}

}  // namespace

Result<ScoreBundleWriter> ExportScoreBundle(const SnapshotSeries& series,
                                            size_t num_observations,
                                            const BundleExportOptions& options) {
  if (!series.has_pageranks()) {
    return Status::FailedPrecondition(
        "ExportScoreBundle needs ComputePageRanks() to have run");
  }
  if (num_observations < 2 || num_observations > series.num_snapshots()) {
    return Status::InvalidArgument(
        "num_observations must be in [2, num_snapshots]");
  }
  QRANK_ASSIGN_OR_RETURN(
      QualityEstimate estimate,
      EstimateQuality(series, num_observations, options.estimator));

  ScoreBundleSource source;
  source.quality = std::move(estimate.quality);
  source.pagerank = series.pagerank(num_observations - 1);
  source.site_ids = options.site_ids;
  source.num_sites = options.num_sites;
  source.expected_mass = options.expected_mass;
  source.creator_tag = options.creator_tag;
  return ScoreBundleWriter::Create(std::move(source), options.parallel);
}

Result<ScoreBundleWriter> ExportScoreBundleFromObservations(
    const std::vector<std::vector<double>>& observations,
    const BundleExportOptions& options) {
  std::vector<const std::vector<double>*> window;
  window.reserve(observations.size());
  for (const std::vector<double>& observation : observations) {
    window.push_back(&observation);
  }
  QRANK_ASSIGN_OR_RETURN(std::vector<double> quality,
                         WindowQuality(window, options.estimator));

  ScoreBundleSource source;
  source.quality = std::move(quality);
  source.pagerank = observations.back();
  source.site_ids = options.site_ids;
  source.num_sites = options.num_sites;
  source.expected_mass = options.expected_mass;
  source.creator_tag = options.creator_tag;
  return ScoreBundleWriter::Create(std::move(source), options.parallel);
}

Result<std::vector<double>> ComputeWindowQuality(
    const std::vector<SharedObservation>& observations,
    const QualityEstimatorOptions& options) {
  std::vector<const std::vector<double>*> window;
  window.reserve(observations.size());
  for (const SharedObservation& observation : observations) {
    if (observation == nullptr) {
      return Status::InvalidArgument("null observation in window");
    }
    window.push_back(observation.get());
  }
  return WindowQuality(window, options);
}

}  // namespace qrank

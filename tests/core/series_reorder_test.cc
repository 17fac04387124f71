// SnapshotSeries under cache-aware reordering: every (mode, ordering)
// combination must produce the same per-snapshot scores as the
// identity-order scratch solve, keep the public artifacts in original
// page ids, and expose the permutation it solved under.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "core/snapshot_series.h"
#include "graph/generators.h"
#include "graph/reorder.h"

namespace qrank {
namespace {

// Random churn: drop `drop_count` edges, add `add_count`, same node set.
CsrGraph Evolve(const CsrGraph& g, int add_count, int drop_count, Rng* rng) {
  std::vector<Edge> edges;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.OutNeighbors(u)) edges.push_back({u, v});
  }
  for (int k = 0; k < drop_count && !edges.empty(); ++k) {
    const size_t idx = rng->UniformUint64(edges.size());
    edges[idx] = edges.back();
    edges.pop_back();
  }
  const NodeId n = g.num_nodes();
  for (int k = 0; k < add_count; ++k) {
    const NodeId u = static_cast<NodeId>(rng->UniformUint64(n));
    const NodeId v = static_cast<NodeId>(rng->UniformUint64(n));
    if (u != v) edges.push_back({u, v});
  }
  return CsrGraph::FromEdges(n, edges).value();
}

// Four snapshots of a site-clustered web with light churn between
// consecutive crawls (the Section 8.1 shape).
SnapshotSeries MakeSeries() {
  Rng rng(42);
  SnapshotSeries series;
  CsrGraph g = CsrGraph::FromEdgeList(
                   GenerateSiteClustered(6, 12, 3, 2, &rng).value())
                   .value();
  EXPECT_TRUE(series.AddSnapshot(0.0, g).ok());
  for (int i = 1; i < 4; ++i) {
    g = Evolve(g, 6, 4, &rng);
    EXPECT_TRUE(series.AddSnapshot(static_cast<double>(i), g).ok());
  }
  return series;
}

SeriesComputeOptions Options(SeriesMode mode, NodeOrdering ordering) {
  SeriesComputeOptions o;
  o.pagerank.tolerance = 1e-12;
  o.pagerank.max_iterations = 2000;
  o.mode = mode;
  o.ordering = ordering;
  return o;
}

bool SameGraph(const CsrGraph& a, const CsrGraph& b) {
  return a.num_nodes() == b.num_nodes() &&
         std::equal(a.offsets().begin(), a.offsets().end(),
                    b.offsets().begin(), b.offsets().end()) &&
         std::equal(a.targets().begin(), a.targets().end(),
                    b.targets().begin(), b.targets().end());
}

TEST(SeriesReorderTest, AllModesAndOrderingsAgreeWithIdentityScratch) {
  SnapshotSeries reference = MakeSeries();
  ASSERT_TRUE(reference
                  .ComputePageRanks(
                      Options(SeriesMode::kScratch, NodeOrdering::kIdentity))
                  .ok());

  for (SeriesMode mode : {SeriesMode::kScratch, SeriesMode::kWarmStart,
                          SeriesMode::kIncremental}) {
    for (NodeOrdering ordering :
         {NodeOrdering::kIdentity, NodeOrdering::kDegreeDescending,
          NodeOrdering::kBfsLocality}) {
      SnapshotSeries series = MakeSeries();
      ASSERT_TRUE(series.ComputePageRanks(Options(mode, ordering)).ok())
          << NodeOrderingName(ordering);
      for (size_t i = 0; i < series.num_snapshots(); ++i) {
        const std::vector<double>& got = series.pagerank(i);
        const std::vector<double>& want = reference.pagerank(i);
        ASSERT_EQ(got.size(), want.size());
        for (size_t u = 0; u < got.size(); ++u) {
          ASSERT_NEAR(got[u], want[u], 1e-8)
              << "snapshot " << i << " node " << u << " mode "
              << static_cast<int>(mode) << " ordering "
              << NodeOrderingName(ordering);
        }
      }
    }
  }
}

TEST(SeriesReorderTest, CommonGraphsStayInOriginalIds) {
  SnapshotSeries reference = MakeSeries();
  ASSERT_TRUE(reference
                  .ComputePageRanks(
                      Options(SeriesMode::kScratch, NodeOrdering::kIdentity))
                  .ok());
  for (SeriesMode mode : {SeriesMode::kScratch, SeriesMode::kWarmStart,
                          SeriesMode::kIncremental}) {
    SnapshotSeries series = MakeSeries();
    ASSERT_TRUE(series
                    .ComputePageRanks(
                        Options(mode, NodeOrdering::kBfsLocality))
                    .ok());
    for (size_t i = 0; i < series.num_snapshots(); ++i) {
      EXPECT_TRUE(SameGraph(series.common_graph(i),
                            reference.common_graph(i)))
          << "snapshot " << i;
    }
  }
}

TEST(SeriesReorderTest, PermutationExposedAndValid) {
  for (NodeOrdering ordering :
       {NodeOrdering::kDegreeDescending, NodeOrdering::kBfsLocality}) {
    SnapshotSeries series = MakeSeries();
    ASSERT_TRUE(series
                    .ComputePageRanks(
                        Options(SeriesMode::kIncremental, ordering))
                    .ok());
    EXPECT_TRUE(ValidatePermutation(series.permutation(),
                                    series.CommonNodeCount())
                    .ok())
        << NodeOrderingName(ordering);
  }
}

TEST(SeriesReorderTest, IdentityOrderingLeavesPermutationEmpty) {
  SnapshotSeries series = MakeSeries();
  ASSERT_TRUE(series
                  .ComputePageRanks(
                      Options(SeriesMode::kWarmStart, NodeOrdering::kIdentity))
                  .ok());
  EXPECT_TRUE(series.permutation().empty());
}

TEST(SeriesReorderTest, ReorderingDoesNotChangeWorkAccounting) {
  // The incremental engine's block Gauss–Seidel sweeps read fresh values
  // in label order, so its iteration counts depend on the labeling by
  // design. What must not depend on it: every snapshot converges, the
  // scores agree within the engine bound, and warm incremental solves
  // never cost more sweeps than from-scratch solves of the same
  // snapshot.
  const PageRankOptions pr =
      Options(SeriesMode::kIncremental, NodeOrdering::kIdentity).pagerank;
  const double engine_bound = pr.damping * pr.tolerance / (1.0 - pr.damping);
  std::vector<SnapshotSeries> incremental;
  for (NodeOrdering ordering :
       {NodeOrdering::kIdentity, NodeOrdering::kBfsLocality}) {
    SnapshotSeries series = MakeSeries();
    ASSERT_TRUE(
        series.ComputePageRanks(Options(SeriesMode::kIncremental, ordering))
            .ok());
    SnapshotSeries scratch = MakeSeries();
    ASSERT_TRUE(
        scratch.ComputePageRanks(Options(SeriesMode::kScratch, ordering))
            .ok());
    for (size_t i = 0; i < series.num_snapshots(); ++i) {
      const uint32_t iterations = series.iterations_per_snapshot()[i];
      EXPECT_LT(iterations, pr.max_iterations)
          << "snapshot " << i << " " << NodeOrderingName(ordering);
      EXPECT_LE(iterations, scratch.iterations_per_snapshot()[i])
          << "snapshot " << i << " " << NodeOrderingName(ordering);
    }
    incremental.push_back(std::move(series));
  }
  // pagerank(i) is already mapped back to original page ids. Each vector
  // is within engine_bound of the fixed point, so they are within twice
  // that of each other.
  for (size_t i = 0; i < incremental[0].num_snapshots(); ++i) {
    const std::vector<double>& a = incremental[0].pagerank(i);
    const std::vector<double>& b = incremental[1].pagerank(i);
    ASSERT_EQ(a.size(), b.size());
    double l1 = 0.0;
    for (size_t u = 0; u < a.size(); ++u) l1 += std::fabs(a[u] - b[u]);
    EXPECT_LT(l1, 2.0 * engine_bound) << "snapshot " << i;
  }
}

}  // namespace
}  // namespace qrank

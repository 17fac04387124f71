#include "rank/delta_pagerank.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "graph/generators.h"
#include "graph/graph_delta.h"
#include "rank/rank_vector.h"

namespace qrank {
namespace {

double L1Distance(const std::vector<double>& a, const std::vector<double>& b) {
  double d = 0.0;
  for (size_t i = 0; i < a.size(); ++i) d += std::fabs(a[i] - b[i]);
  return d;
}

CsrGraph RandomGraph(NodeId n, uint32_t deg, uint64_t seed) {
  Rng rng(seed);
  return CsrGraph::FromEdgeList(GenerateBarabasiAlbert(n, deg, &rng).value())
      .value();
}

// A successor graph with a handful of edge changes.
CsrGraph Perturb(const CsrGraph& g, int add_count, uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> edges;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.OutNeighbors(u)) edges.push_back({u, v});
  }
  for (int k = 0; k < add_count; ++k) {
    NodeId u = static_cast<NodeId>(rng.UniformUint64(g.num_nodes()));
    NodeId v = static_cast<NodeId>(rng.UniformUint64(g.num_nodes()));
    if (u != v) edges.push_back({u, v});
  }
  return CsrGraph::FromEdges(g.num_nodes(), edges).value();
}

TEST(DeltaPageRankTest, ColdStartMatchesPlainPageRank) {
  CsrGraph g = RandomGraph(2000, 5, 7);
  PageRankOptions base;
  base.tolerance = 1e-11;
  PageRankResult plain = ComputePageRank(g, base).value();

  DeltaPageRankOptions options;
  options.base = base;
  // Empty frontier = everything dirty (a cold start).
  DeltaPageRankResult delta = ComputeDeltaPageRank(g, {}, options).value();
  EXPECT_TRUE(delta.base.converged);
  EXPECT_LT(L1Distance(delta.base.scores, plain.scores), 1e-9);
}

TEST(DeltaPageRankTest, WarmStartWithFrontierMatchesFromScratch) {
  // The exactness contract: after a small perturbation, the frozen-set
  // warm-started solve agrees with the from-scratch solve within the
  // engine tolerance.
  CsrGraph g0 = RandomGraph(3000, 5, 11);
  PageRankOptions base;
  base.tolerance = 1e-11;
  PageRankResult r0 = ComputePageRank(g0, base).value();

  CsrGraph g1 = Perturb(g0, 40, 13);
  GraphDelta delta = GraphDelta::Between(g0, g1);
  ASSERT_FALSE(delta.empty());

  DeltaPageRankOptions options;
  options.base = base;
  options.base.initial_scores = r0.scores;
  DeltaPageRankResult incr =
      ComputeDeltaPageRank(g1, delta.DirtyFrontier(g1), options).value();
  PageRankResult scratch = ComputePageRank(g1, base).value();

  EXPECT_TRUE(incr.base.converged);
  EXPECT_LT(L1Distance(incr.base.scores, scratch.scores), 1e-9);
}

TEST(DeltaPageRankTest, SiteLocalDeltaDoesFarFewerNodeUpdates) {
  // On a site-clustered graph (the regime the engine targets — a pure
  // preferential-attachment expander mixes any perturbation globally in
  // a few hops), churn confined to one site leaves distant sites frozen.
  Rng rng(17);
  CsrGraph g0 =
      CsrGraph::FromEdgeList(GenerateSiteClustered(50, 100, 4, 3, &rng).value())
          .value();
  PageRankOptions base;
  base.tolerance = 1e-10;
  PageRankResult r0 = ComputePageRank(g0, base).value();

  // Add 10 edges inside site 7 (pages 700..799).
  std::vector<Edge> edges;
  for (NodeId u = 0; u < g0.num_nodes(); ++u) {
    for (NodeId v : g0.OutNeighbors(u)) edges.push_back({u, v});
  }
  for (int k = 0; k < 10; ++k) {
    NodeId u = 700 + static_cast<NodeId>(rng.UniformUint64(100));
    NodeId v = 700 + static_cast<NodeId>(rng.UniformUint64(100));
    if (u != v) edges.push_back({u, v});
  }
  CsrGraph g1 = CsrGraph::FromEdges(g0.num_nodes(), edges).value();
  GraphDelta delta = GraphDelta::Between(g0, g1);
  ASSERT_FALSE(delta.empty());

  DeltaPageRankOptions options;
  options.base = base;
  options.base.initial_scores = r0.scores;
  DeltaPageRankResult incr =
      ComputeDeltaPageRank(g1, delta.DirtyFrontier(g1), options).value();
  PageRankResult scratch = ComputePageRank(g1, base).value();

  EXPECT_TRUE(incr.base.converged);
  EXPECT_LT(L1Distance(incr.base.scores, scratch.scores), 1e-8);
  const uint64_t scratch_updates =
      static_cast<uint64_t>(scratch.iterations) * g1.num_nodes();
  EXPECT_LT(incr.node_updates, scratch_updates / 3);
  EXPECT_GT(incr.frozen_at_end, 0u);
}

TEST(DeltaPageRankTest, FrontierTouchingOnlyDanglingNodes) {
  // 3 and 4 are dangling; a frontier containing only them still
  // converges to the true fixed point (dangling mass redistribution
  // makes their scores globally coupled).
  CsrGraph g =
      CsrGraph::FromEdges(5, {{0, 1}, {0, 3}, {1, 2}, {2, 0}, {2, 4}})
          .value();
  PageRankOptions base;
  base.tolerance = 1e-12;
  PageRankResult scratch = ComputePageRank(g, base).value();

  DeltaPageRankOptions options;
  options.base = base;
  options.base.initial_scores = scratch.scores;
  std::vector<uint8_t> frontier = {0, 0, 0, 1, 1};
  DeltaPageRankResult incr =
      ComputeDeltaPageRank(g, frontier, options).value();
  EXPECT_TRUE(incr.base.converged);
  EXPECT_LT(L1Distance(incr.base.scores, scratch.scores), 1e-10);
}

TEST(DeltaPageRankTest, TotalMassNScale) {
  CsrGraph g = RandomGraph(1000, 4, 23);
  PageRankOptions base;
  base.scale = ScaleConvention::kTotalMassN;
  base.tolerance = 1e-11;
  DeltaPageRankOptions options;
  options.base = base;
  DeltaPageRankResult r = ComputeDeltaPageRank(g, {}, options).value();
  double sum = 0.0;
  for (double s : r.base.scores) sum += s;
  EXPECT_NEAR(sum, static_cast<double>(g.num_nodes()), 1e-6);
}

TEST(DeltaPageRankTest, FullSweepPeriodOneIsPlainWarmJacobi) {
  CsrGraph g = RandomGraph(800, 4, 29);
  PageRankOptions base;
  base.tolerance = 1e-11;
  DeltaPageRankOptions options;
  options.base = base;
  options.full_sweep_period = 1;
  std::vector<uint8_t> frontier(g.num_nodes(), 0);  // all frozen...
  DeltaPageRankResult r = ComputeDeltaPageRank(g, frontier, options).value();
  PageRankResult plain = ComputePageRank(g, base).value();
  // ...but period 1 recomputes everything each round anyway.
  EXPECT_TRUE(r.base.converged);
  EXPECT_LT(L1Distance(r.base.scores, plain.scores), 1e-9);
}

// 64 sites x 200 pages: 12,800 rows, 7 blocks of the fixed sweep
// partition, so the block Gauss–Seidel partial sweeps cross blocks.
CsrGraph SiteGraph() {
  Rng rng(41);
  return CsrGraph::FromEdgeList(
             GenerateSiteClustered(64, 200, 12, 6, &rng).value())
      .value();
}

TEST(DeltaPageRankTest, GaussSeidelPartialSweepsCutWarmIterations) {
  CsrGraph g0 = SiteGraph();
  PageRankOptions base;
  base.tolerance = 1e-10;
  PageRankResult r0 = ComputePageRank(g0, base).value();
  CsrGraph g1 = Perturb(g0, 300, 43);
  const std::vector<uint8_t> frontier =
      GraphDelta::Between(g0, g1).DirtyFrontier(g1);

  DeltaPageRankOptions options;
  options.base = base;
  options.base.initial_scores = r0.scores;
  DeltaPageRankResult gs =
      ComputeDeltaPageRank(g1, frontier, options).value();
  options.full_sweep_period = 1;  // every sweep Jacobi
  DeltaPageRankResult jacobi =
      ComputeDeltaPageRank(g1, frontier, options).value();

  EXPECT_TRUE(gs.base.converged);
  EXPECT_TRUE(jacobi.base.converged);
  // Iteration counts are deterministic, so this is an exact check.
  EXPECT_LE(gs.base.iterations * 10, jacobi.base.iterations * 7)
      << "gauss-seidel " << gs.base.iterations << " vs jacobi "
      << jacobi.base.iterations;
}

TEST(DeltaPageRankTest, WarmStreamStaysWithinTheJacobiBound) {
  // Twenty warm generations, each checked against a tight from-scratch
  // solve: the returned vector must sit within alpha * tol / (1 - alpha)
  // of the fixed point (L1, probability scale), the bound a Jacobi
  // engine stopping at tol meets — which is what the tol / 2 stop buys
  // back from the non-conserving Gauss–Seidel sweeps.
  CsrGraph g = SiteGraph();
  PageRankOptions base;
  base.tolerance = 1e-10;
  PageRankOptions exact = base;
  exact.tolerance = 1e-15;
  exact.max_iterations = 2000;
  const double bound =
      base.damping * base.tolerance / (1.0 - base.damping);

  DeltaPageRankOptions options;
  options.base = base;
  std::vector<double> scores = ComputePageRank(g, base).value().scores;
  for (int gen = 0; gen < 20; ++gen) {
    CsrGraph next = Perturb(g, 300, 100 + gen);
    const std::vector<uint8_t> frontier =
        GraphDelta::Between(g, next).DirtyFrontier(next);
    options.base.initial_scores = scores;
    DeltaPageRankResult incr =
        ComputeDeltaPageRank(next, frontier, options).value();
    PageRankResult truth = ComputePageRank(next, exact).value();
    ASSERT_TRUE(incr.base.converged) << "generation " << gen;
    ASSERT_TRUE(truth.converged);
    EXPECT_LT(L1Distance(incr.base.scores, truth.scores), bound)
        << "generation " << gen;
    scores = std::move(incr.base.scores);
    g = std::move(next);
  }
}

TEST(DeltaPageRankTest, ValidatesOptions) {
  CsrGraph g = RandomGraph(100, 3, 31);
  DeltaPageRankOptions options;
  options.freeze_threshold = 0.0;
  EXPECT_FALSE(ComputeDeltaPageRank(g, {}, options).ok());

  options = {};
  options.full_sweep_period = 0;
  EXPECT_FALSE(ComputeDeltaPageRank(g, {}, options).ok());

  options = {};
  std::vector<uint8_t> wrong_size(g.num_nodes() - 1, 1);
  EXPECT_FALSE(ComputeDeltaPageRank(g, wrong_size, options).ok());

  options.base.damping = 1.5;
  EXPECT_FALSE(ComputeDeltaPageRank(g, {}, options).ok());
}

TEST(DeltaPageRankTest, EmptyGraph) {
  CsrGraph g;
  DeltaPageRankResult r = ComputeDeltaPageRank(g, {}).value();
  EXPECT_TRUE(r.base.scores.empty());
}

}  // namespace
}  // namespace qrank

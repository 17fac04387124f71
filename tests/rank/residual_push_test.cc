// ResidualPushTracker: the warm solver of the ingest loop. Random edit
// streams (removals, additions, page births, a page that turns dangling
// and back) run through the tracker on a power-law graph and a
// site-clustered one. Every generation must sit within the engines'
// α·tol/(1−α) L1 contract of a tol = 1e-13 scratch solve, every
// certified bound must cover the measured error, and the scores must be
// bit-identical at every thread count.

#include "rank/residual_push.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/generators.h"
#include "graph/graph_delta.h"
#include "rank/pagerank.h"

namespace qrank {
namespace {

constexpr int kGenerations = 24;
// Page 7 loses every out-link at this generation and gets them back
// kDanglingSpan generations later.
constexpr int kDanglingAt = 5;
constexpr int kDanglingSpan = 6;
constexpr NodeId kToggled = 7;

double L1(const std::vector<double>& a, const std::vector<double>& b) {
  double d = 0.0;
  for (size_t i = 0; i < a.size(); ++i) d += std::fabs(a[i] - b[i]);
  return d;
}

struct Generation {
  CsrGraph graph;  // ApplyDelta of the previous graph, as ingest builds it
  GraphDelta delta;
};

// A seed graph followed by kGenerations random edits of it.
std::vector<Generation> EditStream(CsrGraph seed, uint64_t rng_seed) {
  Rng rng(rng_seed);
  std::vector<Generation> stream;
  stream.push_back({std::move(seed), GraphDelta{}});
  std::vector<NodeId> toggled_out;
  for (int gen = 1; gen <= kGenerations; ++gen) {
    const CsrGraph& from = stream.back().graph;
    NodeId n = from.num_nodes();
    std::set<std::pair<NodeId, NodeId>> edges;
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v : from.OutNeighbors(u)) edges.insert({u, v});
    }
    std::vector<std::pair<NodeId, NodeId>> listed(edges.begin(), edges.end());
    for (int k = 0; k < 25; ++k) {
      edges.erase(listed[rng.UniformUint64(listed.size())]);
    }
    for (int k = 0; k < 25; ++k) {
      const NodeId u = static_cast<NodeId>(rng.UniformUint64(n));
      const NodeId v = static_cast<NodeId>(rng.UniformUint64(n));
      if (u != v) edges.insert({u, v});
    }
    if (gen % 3 == 0) {
      // A birth: linked in from two pages; every other one links out.
      const NodeId born = n++;
      for (int k = 0; k < 2; ++k) {
        edges.insert({static_cast<NodeId>(rng.UniformUint64(born)), born});
      }
      if (gen % 2 == 0) {
        edges.insert({born, static_cast<NodeId>(rng.UniformUint64(born))});
      }
    }
    if (gen == kDanglingAt) {
      for (NodeId v : from.OutNeighbors(kToggled)) toggled_out.push_back(v);
    }
    if (gen >= kDanglingAt && gen < kDanglingAt + kDanglingSpan) {
      edges.erase(edges.lower_bound({kToggled, 0}),
                  edges.lower_bound({kToggled + 1, 0}));
    } else if (gen == kDanglingAt + kDanglingSpan) {
      for (NodeId v : toggled_out) edges.insert({kToggled, v});
    }
    std::vector<Edge> edge_list;
    for (const auto& [u, v] : edges) edge_list.push_back({u, v});
    const CsrGraph to = CsrGraph::FromEdges(n, edge_list).value();
    GraphDelta delta = GraphDelta::Between(from, to);
    CsrGraph next = from.ApplyDelta(delta).value();
    stream.push_back({std::move(next), std::move(delta)});
  }
  return stream;
}

std::vector<Generation> PowerLawStream() {
  Rng rng(31);
  return EditStream(
      CsrGraph::FromEdgeList(GenerateBarabasiAlbert(1500, 4, &rng).value())
          .value(),
      101);
}

std::vector<Generation> SiteStream() {
  Rng rng(32);
  return EditStream(
      CsrGraph::FromEdgeList(
          GenerateSiteClustered(15, 100, 5, 3, &rng).value())
          .value(),
      202);
}

DeltaPageRankOptions TrackerOptions(int threads) {
  DeltaPageRankOptions options;
  options.base.num_threads = threads;
  return options;
}

// Runs the whole stream through one tracker; returns each generation's
// scores and checks every generation against a tol = 1e-13 solve.
std::vector<std::vector<double>> RunAndCheck(
    const std::vector<Generation>& stream, int threads) {
  const DeltaPageRankOptions options = TrackerOptions(threads);
  const double alpha = options.base.damping;
  const double contract = alpha * options.base.tolerance / (1.0 - alpha);
  // 1e-13, not tighter: at audit level 2 the reference's own
  // engine.residual re-check allows one recomputed sweep to move it by
  // 2x its tolerance, and at 1e-15 recomputation rounding on these
  // graphs alone exceeds that. Its distance from the fixed point is
  // still 0.1% of the contract checked here.
  PageRankOptions reference_options;
  reference_options.tolerance = 1e-13;
  reference_options.max_iterations = 100000;
  const double reference_slack =
      alpha * reference_options.tolerance / (1.0 - alpha);

  ResidualPushTracker tracker(options);
  std::vector<std::vector<double>> all;
  std::vector<double> scores;
  for (size_t gen = 0; gen < stream.size(); ++gen) {
    const Generation& g = stream[gen];
    const ResidualPushStats stats =
        tracker.Solve(g.graph, g.delta, &scores).value();
    EXPECT_TRUE(stats.converged) << "generation " << gen;
    EXPECT_EQ(tracker.num_nodes(), g.graph.num_nodes());
    if (gen > 0) {
      EXPECT_EQ(stats.cold_iterations, 0u);
      EXPECT_GT(stats.pushes, 0u) << "generation " << gen;
      // An exact patch leaves nothing for a second pass to find: the
      // drained residual certifies at once.
      EXPECT_EQ(stats.residual_passes, 1u) << "generation " << gen;
    }
    const PageRankResult reference =
        ComputePageRank(g.graph, reference_options).value();
    EXPECT_TRUE(reference.converged);
    const double error = L1(scores, reference.scores);
    EXPECT_LE(error, contract) << "generation " << gen;
    EXPECT_LE(stats.certified_bound, contract) << "generation " << gen;
    EXPECT_LE(error, stats.certified_bound + reference_slack)
        << "generation " << gen;
    all.push_back(scores);
  }
  return all;
}

void ExpectBitIdenticalAcrossThreads(const std::vector<Generation>& stream) {
  const std::vector<std::vector<double>> serial = RunAndCheck(stream, 1);
  for (const int threads : {2, 3, 8}) {
    const std::vector<std::vector<double>> parallel =
        RunAndCheck(stream, threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t gen = 0; gen < serial.size(); ++gen) {
      EXPECT_EQ(parallel[gen], serial[gen])
          << "generation " << gen << " at " << threads << " threads";
    }
  }
}

TEST(ResidualPushTest, PowerLawStreamStaysWithinContractAtEveryThreadCount) {
  const std::vector<Generation> stream = PowerLawStream();
  // The stream really covers the edge cases it claims to.
  EXPECT_GT(stream.back().graph.num_nodes(), stream.front().graph.num_nodes());
  EXPECT_EQ(stream[kDanglingAt].graph.OutDegree(kToggled), 0u);
  EXPECT_GT(stream[kDanglingAt + kDanglingSpan].graph.OutDegree(kToggled), 0u);
  ExpectBitIdenticalAcrossThreads(stream);
}

TEST(ResidualPushTest, SiteClusteredStreamStaysWithinContractAtEveryThreadCount) {
  const std::vector<Generation> stream = SiteStream();
  EXPECT_EQ(stream[kDanglingAt].graph.OutDegree(kToggled), 0u);
  ExpectBitIdenticalAcrossThreads(stream);
}

// The cold start seeds y from the engine's vector scaled for the
// dangling mass, which leaves only the engine's own tolerance to push:
// one pass sets r, the seed drain is short, and one pass certifies.
TEST(ResidualPushTest, ColdStartSeedAccountsForDanglingMass) {
  Rng rng(33);
  const EdgeList base = GenerateBarabasiAlbert(1500, 4, &rng).value();
  std::vector<Edge> edges;
  for (const Edge& e : base.edges()) {
    if (e.src % 5 != 0) edges.push_back(e);  // every fifth page dangles
  }
  const CsrGraph g = CsrGraph::FromEdges(1500, edges).value();
  ASSERT_GT(g.CountDanglingNodes(), 250u);
  ResidualPushTracker tracker(TrackerOptions(1));
  std::vector<double> scores;
  const ResidualPushStats stats =
      tracker.Solve(g, GraphDelta{}, &scores).value();
  EXPECT_TRUE(stats.converged);
  EXPECT_GT(stats.cold_iterations, 0u);
  EXPECT_LE(stats.residual_passes, 2u);
  EXPECT_LT(stats.pushes, g.num_nodes());
}

TEST(ResidualPushTest, EmptyDeltaPerformsNoPushes) {
  const std::vector<Generation> stream = SiteStream();
  ResidualPushTracker tracker(TrackerOptions(1));
  std::vector<double> first;
  ASSERT_TRUE(tracker.Solve(stream[0].graph, GraphDelta{}, &first).ok());
  GraphDelta empty;
  empty.old_num_nodes = empty.new_num_nodes = stream[0].graph.num_nodes();
  std::vector<double> again;
  const ResidualPushStats stats =
      tracker.Solve(stream[0].graph, empty, &again).value();
  EXPECT_EQ(stats.pushes, 0u);
  EXPECT_EQ(stats.residual_passes, 1u);
  EXPECT_TRUE(stats.converged);
  EXPECT_EQ(again, first);
}

TEST(ResidualPushTest, RejectsShrinkingAndMismatchedDeltas) {
  const std::vector<Generation> stream = SiteStream();
  const CsrGraph& g = stream[0].graph;
  ResidualPushTracker tracker(TrackerOptions(1));
  std::vector<double> scores;
  ASSERT_TRUE(tracker.Solve(g, GraphDelta{}, &scores).ok());

  GraphDelta shrink;
  shrink.old_num_nodes = g.num_nodes();
  shrink.new_num_nodes = g.num_nodes() - 1;
  EXPECT_EQ(tracker.Solve(g, shrink, &scores).status().code(),
            StatusCode::kInvalidArgument);

  GraphDelta stale;  // claims a different starting page count
  stale.old_num_nodes = g.num_nodes() + 1;
  stale.new_num_nodes = g.num_nodes() + 1;
  EXPECT_EQ(tracker.Solve(g, stale, &scores).status().code(),
            StatusCode::kInvalidArgument);
  // A rejected delta leaves the tracked state untouched.
  EXPECT_EQ(tracker.num_nodes(), g.num_nodes());
  EXPECT_TRUE(tracker.Solve(stream[1].graph, stream[1].delta, &scores).ok());
}

TEST(ResidualPushTest, RejectsPersonalizedTeleport) {
  const std::vector<Generation> stream = SiteStream();
  const CsrGraph& g = stream[0].graph;
  DeltaPageRankOptions options;
  options.base.personalization.assign(g.num_nodes(), 1.0);
  ResidualPushTracker tracker(options);
  std::vector<double> scores;
  EXPECT_EQ(tracker.Solve(g, GraphDelta{}, &scores).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ResidualPushTest, MassNScaleAndEmptyGraph) {
  ResidualPushTracker empty_tracker(TrackerOptions(1));
  std::vector<double> scores{1.0};
  const CsrGraph empty = CsrGraph::FromEdges(0, {}).value();
  EXPECT_TRUE(empty_tracker.Solve(empty, GraphDelta{}, &scores).ok());
  EXPECT_TRUE(scores.empty());

  const std::vector<Generation> stream = SiteStream();
  DeltaPageRankOptions options = TrackerOptions(2);
  options.base.scale = ScaleConvention::kTotalMassN;
  ResidualPushTracker tracker(options);
  for (size_t gen = 0; gen < 4; ++gen) {
    ASSERT_TRUE(
        tracker.Solve(stream[gen].graph, stream[gen].delta, &scores).ok());
    double sum = 0.0;
    for (double s : scores) sum += s;
    EXPECT_NEAR(sum, stream[gen].graph.num_nodes(), 1e-9);
  }
}

// A tolerance below what one exact pass can resolve never certifies:
// the solve reports converged = false after max_iterations passes, or
// NotConverged when convergence is required.
TEST(ResidualPushTest, UncertifiableToleranceStopsAtThePassCap) {
  const std::vector<Generation> stream = SiteStream();
  DeltaPageRankOptions options = TrackerOptions(1);
  options.base.tolerance = 1e-20;
  options.base.max_iterations = 3;
  ResidualPushTracker tracker(options);
  std::vector<double> scores;
  const ResidualPushStats cold =
      tracker.Solve(stream[0].graph, GraphDelta{}, &scores).value();
  EXPECT_FALSE(cold.converged);
  EXPECT_EQ(cold.residual_passes, 3u);
  const ResidualPushStats warm =
      tracker.Solve(stream[1].graph, stream[1].delta, &scores).value();
  EXPECT_FALSE(warm.converged);
  EXPECT_EQ(warm.residual_passes, 3u);

  options.base.require_convergence = true;
  ResidualPushTracker strict(options);
  EXPECT_EQ(strict.Solve(stream[0].graph, GraphDelta{}, &scores)
                .status()
                .code(),
            StatusCode::kNotConverged);
}

}  // namespace
}  // namespace qrank

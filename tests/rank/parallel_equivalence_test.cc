// Equivalence suite for the parallel compute substrate: results must be
// independent of --threads. This is the correctness contract that lets
// the quality estimator Q(p) ≈ C·ΔPR/PR + PR — a ratio of nearly equal
// floating-point quantities — run on the parallel engines: any
// thread-count-dependent wobble in PR would masquerade as a quality
// signal.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/parallel_for.h"
#include "common/rng.h"
#include "core/snapshot_series.h"
#include "graph/generators.h"
#include "graph/graph_delta.h"
#include "rank/delta_pagerank.h"
#include "rank/pagerank.h"
#include "rank/rank_vector.h"
#include "sim/web_simulator.h"

namespace qrank {
namespace {

const int kThreadCounts[] = {1, 2, 8};

CsrGraph RandomGraph(uint64_t seed, NodeId nodes, uint32_t out_degree) {
  Rng rng(seed);
  return CsrGraph::FromEdgeList(
             GenerateBarabasiAlbert(nodes, out_degree, &rng).value())
      .value();
}

void ExpectBitIdenticalScores(const CsrGraph& graph, PageRankOptions options) {
  options.num_threads = 1;
  Result<PageRankResult> serial = ComputePageRank(graph, options);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  for (int threads : kThreadCounts) {
    options.num_threads = threads;
    Result<PageRankResult> parallel = ComputePageRank(graph, options);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(parallel->iterations, serial->iterations)
        << "threads=" << threads;
    EXPECT_EQ(parallel->residual, serial->residual) << "threads=" << threads;
    ASSERT_EQ(parallel->scores.size(), serial->scores.size());
    for (size_t i = 0; i < serial->scores.size(); ++i) {
      // Bit-identical, not approximately equal: fixed block partitions
      // and tree-ordered reductions are thread-count independent.
      ASSERT_EQ(parallel->scores[i], serial->scores[i])
          << "node " << i << " threads=" << threads;
    }
  }
}

TEST(ParallelEquivalenceTest, PageRankOnRandomGraphs) {
  for (uint64_t seed : {1u, 7u, 99u}) {
    for (NodeId nodes : {NodeId{50}, NodeId{1000}, NodeId{5000}}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " nodes=" + std::to_string(nodes));
      ExpectBitIdenticalScores(RandomGraph(seed, nodes, 5), {});
    }
  }
}

TEST(ParallelEquivalenceTest, PageRankWithDanglingNodes) {
  // Erdos-Renyi at low density leaves isolated (dangling) nodes, which
  // exercise the parallel dangling-mass reduction.
  Rng rng(17);
  CsrGraph g =
      CsrGraph::FromEdgeList(GenerateErdosRenyi(800, 0.002, &rng).value())
          .value();
  ASSERT_GT(g.CountDanglingNodes(), 0u);
  ExpectBitIdenticalScores(g, {});

  // All-dangling extreme: no edges at all.
  CsrGraph empty_edges = CsrGraph::FromEdges(64, {}).value();
  ExpectBitIdenticalScores(empty_edges, {});
}

TEST(ParallelEquivalenceTest, PageRankOnSingleNodeAndEmptyGraphs) {
  CsrGraph single = CsrGraph::FromEdges(1, {}).value();
  ExpectBitIdenticalScores(single, {});

  CsrGraph empty;
  for (int threads : kThreadCounts) {
    PageRankOptions o;
    o.num_threads = threads;
    Result<PageRankResult> r = ComputePageRank(empty, o);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->scores.empty());
    EXPECT_TRUE(r->converged);
  }
}

TEST(ParallelEquivalenceTest, PageRankUnderNonDefaultOptions) {
  CsrGraph g = RandomGraph(23, 2000, 4);
  PageRankOptions o;
  o.damping = 0.95;
  o.scale = ScaleConvention::kTotalMassN;
  std::vector<double> personalization(g.num_nodes(), 1.0);
  personalization[3] = 50.0;
  o.personalization = personalization;
  ExpectBitIdenticalScores(g, o);
}

TEST(ParallelEquivalenceTest, ParallelAgreesWithSerialGaussSeidelReference) {
  // Cross-engine check: the parallel Jacobi fixed point must match the
  // deliberately-serial Gauss-Seidel reference engine to solver
  // tolerance (they share a fixed point, not an iteration sequence).
  CsrGraph g = RandomGraph(5, 1500, 6);
  PageRankOptions o;
  o.tolerance = 1e-12;
  o.max_iterations = 2000;
  o.num_threads = 8;
  Result<PageRankResult> jacobi = ComputePageRank(g, o);
  Result<PageRankResult> gs = ComputePageRankGaussSeidel(g, o);
  ASSERT_TRUE(jacobi.ok());
  ASSERT_TRUE(gs.ok());
  EXPECT_TRUE(jacobi->converged);
  EXPECT_TRUE(gs->converged);
  EXPECT_LT(L1Distance(jacobi->scores, gs->scores), 1e-9);
}

void ExpectDeltaBitIdentical(const CsrGraph& g0, int added_edges,
                             uint64_t seed) {
  PageRankOptions base;
  base.tolerance = 1e-11;
  PageRankResult r0 = ComputePageRank(g0, base).value();

  // Perturb: add a few edges.
  std::vector<Edge> edges;
  for (NodeId u = 0; u < g0.num_nodes(); ++u) {
    for (NodeId v : g0.OutNeighbors(u)) edges.push_back({u, v});
  }
  Rng rng(seed);
  for (int k = 0; k < added_edges; ++k) {
    NodeId u = static_cast<NodeId>(rng.UniformUint64(g0.num_nodes()));
    NodeId v = static_cast<NodeId>(rng.UniformUint64(g0.num_nodes()));
    if (u != v) edges.push_back({u, v});
  }
  CsrGraph g1 = CsrGraph::FromEdges(g0.num_nodes(), edges).value();
  GraphDelta delta = GraphDelta::Between(g0, g1);
  std::vector<uint8_t> frontier = delta.DirtyFrontier(g1);

  DeltaPageRankOptions options;
  options.base = base;
  options.base.initial_scores = r0.scores;
  options.base.num_threads = 1;
  DeltaPageRankResult serial =
      ComputeDeltaPageRank(g1, frontier, options).value();
  EXPECT_TRUE(serial.base.converged);
  for (int threads : {2, 3, 8}) {
    options.base.num_threads = threads;
    DeltaPageRankResult parallel =
        ComputeDeltaPageRank(g1, frontier, options).value();
    EXPECT_EQ(parallel.base.iterations, serial.base.iterations)
        << "threads=" << threads;
    EXPECT_EQ(parallel.base.residual, serial.base.residual);
    EXPECT_EQ(parallel.node_updates, serial.node_updates);
    EXPECT_EQ(parallel.frozen_at_end, serial.frozen_at_end);
    ASSERT_EQ(parallel.base.scores.size(), serial.base.scores.size());
    for (size_t i = 0; i < serial.base.scores.size(); ++i) {
      ASSERT_EQ(parallel.base.scores[i], serial.base.scores[i])
          << "node " << i << " threads=" << threads;
    }
  }
}

TEST(ParallelEquivalenceTest, DeltaPageRankBitIdenticalAcrossThreads) {
  // The incremental engine shares the contract: same graph, same dirty
  // frontier, same warm start => bit-identical scores, iteration counts
  // and work counters for every thread count.
  {
    SCOPED_TRACE("3000-page preferential attachment, 2 blocks");
    ExpectDeltaBitIdentical(RandomGraph(31, 3000, 5), 25, 37);
  }
  {
    // 176 sites x 200 pages = 35,200 rows make 18 blocks of the fixed
    // sweep partition, so the block Gauss–Seidel partial sweeps read
    // fresh values inside a block and snapshot values across many block
    // boundaries, with up to 8 blocks in flight at once.
    SCOPED_TRACE("176 x 200 site-clustered, 18 blocks");
    Rng rng(59);
    ExpectDeltaBitIdentical(
        CsrGraph::FromEdgeList(
            GenerateSiteClustered(176, 200, 12, 6, &rng).value())
            .value(),
        300, 61);
  }
}

void FillEvolvingSeries(SnapshotSeries* s) {
  Rng rng(53);
  std::vector<Edge> edges =
      GenerateBarabasiAlbert(2000, 4, &rng).value().edges();
  for (int i = 0; i < 4; ++i) {
    const NodeId n = static_cast<NodeId>(2000 + 30 * i);
    for (int k = 0; k < 40 * i; ++k) {
      NodeId u = static_cast<NodeId>(rng.UniformUint64(n));
      NodeId v = static_cast<NodeId>(rng.UniformUint64(n));
      if (u != v) edges.push_back({u, v});
    }
    ASSERT_TRUE(
        s->AddSnapshot(i + 1.0, CsrGraph::FromEdges(n, edges).value()).ok());
  }
}

TEST(ParallelEquivalenceTest, IncrementalSeriesIndependentOfThreadCount) {
  // End-to-end: the whole incremental snapshot pipeline (delta builds,
  // transpose patches, frozen-set solves) is bit-identical across thread
  // counts, and its fixed points agree with the serial from-scratch
  // Gauss-Seidel reference.
  SeriesComputeOptions o;
  o.mode = SeriesMode::kIncremental;
  o.pagerank.tolerance = 1e-12;
  o.pagerank.max_iterations = 2000;

  o.pagerank.num_threads = 1;
  SnapshotSeries reference;
  FillEvolvingSeries(&reference);
  ASSERT_TRUE(reference.ComputePageRanks(o).ok());

  for (int threads : {2, 8}) {
    o.pagerank.num_threads = threads;
    SnapshotSeries series;
    FillEvolvingSeries(&series);
    ASSERT_TRUE(series.ComputePageRanks(o).ok());
    for (size_t i = 0; i < reference.num_snapshots(); ++i) {
      EXPECT_EQ(series.iterations_per_snapshot()[i],
                reference.iterations_per_snapshot()[i])
          << "snapshot " << i << " threads=" << threads;
      EXPECT_EQ(series.node_updates_per_snapshot()[i],
                reference.node_updates_per_snapshot()[i]);
      ASSERT_EQ(series.pagerank(i).size(), reference.pagerank(i).size());
      for (size_t p = 0; p < reference.pagerank(i).size(); ++p) {
        ASSERT_EQ(series.pagerank(i)[p], reference.pagerank(i)[p])
            << "snapshot " << i << " node " << p << " threads=" << threads;
      }
    }
  }

  // Cross-engine: each snapshot's incremental fixed point vs the serial
  // from-scratch Gauss-Seidel solve of the same induced subgraph.
  PageRankOptions gs_options = o.pagerank;
  gs_options.num_threads = 1;
  for (size_t i = 0; i < reference.num_snapshots(); ++i) {
    PageRankResult gs =
        ComputePageRankGaussSeidel(reference.common_graph(i), gs_options)
            .value();
    EXPECT_TRUE(gs.converged);
    EXPECT_LT(L1Distance(reference.pagerank(i), gs.scores), 1e-9)
        << "snapshot " << i;
  }
}

std::vector<std::pair<NodeId, NodeId>> SnapshotEdges(const WebSimulator& sim) {
  CsrGraph g = sim.Snapshot().value();
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.OutNeighbors(u)) edges.push_back({u, v});
  }
  return edges;
}

TEST(ParallelEquivalenceTest, SimulatorTrajectoryIndependentOfThreadCount) {
  WebSimulatorOptions base;
  base.num_users = 300;
  base.seed = 1234;
  base.page_birth_rate = 4.0;
  base.forget_rate = 0.01;
  base.exploration_visit_rate = 0.05;

  base.num_threads = 1;
  WebSimulator reference = WebSimulator::Create(base).value();
  ASSERT_TRUE(reference.AdvanceTo(8.0).ok());
  const auto reference_edges = SnapshotEdges(reference);
  ASSERT_GT(reference_edges.size(), 0u);

  for (int threads : {2, 8}) {
    WebSimulatorOptions o = base;
    o.num_threads = threads;
    WebSimulator sim = WebSimulator::Create(o).value();
    ASSERT_TRUE(sim.AdvanceTo(8.0).ok());
    EXPECT_EQ(sim.total_visits(), reference.total_visits())
        << "threads=" << threads;
    EXPECT_EQ(sim.total_likes_created(), reference.total_likes_created());
    EXPECT_EQ(sim.total_forgets(), reference.total_forgets());
    ASSERT_EQ(sim.num_pages(), reference.num_pages());
    for (NodeId p = 0; p < sim.num_pages(); ++p) {
      ASSERT_EQ(sim.page(p).likes, reference.page(p).likes) << "page " << p;
      ASSERT_EQ(sim.page(p).aware, reference.page(p).aware) << "page " << p;
      ASSERT_EQ(sim.page(p).visits, reference.page(p).visits) << "page " << p;
    }
    // Identical snapshot edge lists, edge for edge.
    EXPECT_EQ(SnapshotEdges(sim), reference_edges) << "threads=" << threads;
  }
}

TEST(ParallelEquivalenceTest, SearchMediatedSimulatorIndependentOfThreads) {
  WebSimulatorOptions base;
  base.num_users = 200;
  base.seed = 77;
  base.page_birth_rate = 2.0;
  base.search.policy = RankingPolicy::kQualityEstimate;
  base.search.search_traffic_fraction = 0.4;

  base.num_threads = 1;
  WebSimulator reference = WebSimulator::Create(base).value();
  ASSERT_TRUE(reference.AdvanceTo(6.0).ok());

  for (int threads : {2, 8}) {
    WebSimulatorOptions o = base;
    o.num_threads = threads;
    WebSimulator sim = WebSimulator::Create(o).value();
    ASSERT_TRUE(sim.AdvanceTo(6.0).ok());
    EXPECT_EQ(sim.total_search_visits(), reference.total_search_visits());
    EXPECT_EQ(sim.rerank_count(), reference.rerank_count());
    EXPECT_EQ(sim.search_results(), reference.search_results());
    EXPECT_EQ(SnapshotEdges(sim), SnapshotEdges(reference));
  }
}

TEST(ParallelEquivalenceTest, CsrTransposeIndependentOfThreadCount) {
  // A graph big enough to cross the parallel threshold in csr_graph.cc
  // (2^16 edges); the transpose arrays must be identical to the serial
  // result for every default thread count.
  Rng rng(3);
  EdgeList edges = GenerateBarabasiAlbert(20000, 6, &rng).value();
  ASSERT_GT(edges.num_edges(), size_t{1} << 16);

  SetDefaultThreads(1);
  CsrGraph serial = CsrGraph::FromEdgeList(edges).value();
  CsrGraph serial_t = serial.Transpose();
  for (int threads : {2, 8}) {
    SetDefaultThreads(threads);
    CsrGraph parallel = CsrGraph::FromEdgeList(edges).value();
    CsrGraph parallel_t = parallel.Transpose();
    EXPECT_EQ(parallel.offsets(), serial.offsets()) << "threads=" << threads;
    EXPECT_EQ(parallel.targets(), serial.targets()) << "threads=" << threads;
    EXPECT_EQ(parallel_t.offsets(), serial_t.offsets());
    EXPECT_EQ(parallel_t.targets(), serial_t.targets());
  }
  SetDefaultThreads(0);
}

}  // namespace
}  // namespace qrank

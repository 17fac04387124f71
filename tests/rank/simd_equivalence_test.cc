// Equivalence suite for the SIMD pull-sweep variant against the scalar
// oracle (DESIGN.md §5g). kSimd runs the AVX-512 fold where the build
// and CPU have it: a different fold association from the scalar
// 4-accumulator oracle, held to a <= 1e-14 per-element bound on mass-1
// scores for every generator, thread count and partition, and to the
// engines' own alpha * tol / (1 - alpha) L1 contract wherever a solve
// stops on tolerance. Where dispatch resolves to scalar (no AVX-512, or
// QRANK_FORCE_SIMD_LEVEL=scalar) every case must be bit-exact instead,
// so the suite is meaningful on any CPU.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "core/snapshot_series.h"
#include "graph/generators.h"
#include "graph/graph_delta.h"
#include "rank/delta_pagerank.h"
#include "rank/pagerank.h"
#include "rank/sweep_ops.h"

namespace qrank {
namespace {

// Per-element bound for the AVX-512 fold (DESIGN.md §5g): each pull is
// a re-association of deg(i) addends, so its error is O(deg * eps *
// pull) and the iteration contracts the accumulated drift to
// ~alpha/(1-alpha) times one sweep's worth. A hub with in-degree in
// the hundreds and a ~0.15 score lands near 2e-15; 1e-14 holds that
// with ~5x margin across every generator here.
constexpr double kAvx512Tolerance = 1e-14;

const int kThreadCounts[] = {1, 2, 4, 8};
const SweepPartition kPartitions[] = {SweepPartition::kNodeBalanced,
                                      SweepPartition::kEdgeBalanced};

struct NamedGraph {
  std::string name;
  CsrGraph graph;
};

// One instance of every generator family, sized to cross the parallel
// grain with several blocks while staying fast under sanitizers.
std::vector<NamedGraph> TestGraphs() {
  std::vector<NamedGraph> graphs;
  {
    Rng rng(11);
    graphs.push_back(
        {"barabasi_albert",
         CsrGraph::FromEdgeList(GenerateBarabasiAlbert(4000, 6, &rng).value())
             .value()});
  }
  {
    Rng rng(12);
    // Sparse enough to leave dangling nodes.
    graphs.push_back(
        {"erdos_renyi",
         CsrGraph::FromEdgeList(GenerateErdosRenyi(1500, 0.002, &rng).value())
             .value()});
  }
  {
    Rng rng(13);
    graphs.push_back(
        {"copy_model",
         CsrGraph::FromEdgeList(
             GenerateCopyModel(3000, 5, 0.5, &rng).value())
             .value()});
  }
  {
    Rng rng(14);
    graphs.push_back(
        {"site_clustered",
         CsrGraph::FromEdgeList(
             GenerateSiteClustered(40, 50, 8, 4, &rng).value())
             .value()});
  }
  {
    Rng rng(15);
    graphs.push_back(
        {"quality_seeded",
         CsrGraph::FromEdgeList(
             GenerateQualitySeeded(2500, 5, 2.0, 5.0, 2.0, &rng)
                 .value()
                 .edges)
             .value()});
  }
  graphs.push_back(
      {"ring", CsrGraph::FromEdgeList(GenerateRing(500, 3).value()).value()});
  graphs.push_back(
      {"star",
       CsrGraph::FromEdgeList(GenerateStar(400).value()).value()});
  return graphs;
}

// Fixed work for the kernel-equivalence runs: a tolerance-based stop
// would couple the comparison to the convergence test — a residual
// landing within one ulp of the threshold could legally shift the
// AVX-512 iteration count by one and smear the per-element bound into
// a residual-sized difference.
PageRankOptions FixedWorkOptions() {
  PageRankOptions o;
  o.tolerance = 1e-300;  // never met
  o.max_iterations = 60;
  return o;
}

// True when kSimd actually resolves to a different fold than the
// scalar oracle on this host/build (i.e. AVX-512 dispatched).
bool SimdResolvesToAvx512() {
  return rank_internal::KernelVariantLevel(KernelVariant::kSimd) ==
         SimdLevel::kAvx512;
}

// The L1 distance from the fixed point every engine here guarantees
// when it stops on `tolerance`: a Jacobi stop at residual r leaves the
// last iterate within alpha * r / (1 - alpha), and the delta engine
// stops at tolerance / 2 so that its final renormalization stays inside
// the same bound.
double EngineBound(const PageRankOptions& o) {
  return o.damping * o.tolerance / (1.0 - o.damping);
}

// A scalar solve far tighter than any bound checked against it: its own
// error, 0.85 * 1e-13 / 0.15 = 5.7e-13, is 1% of the 5.7e-11 EngineBound
// it is checked against. Tighter tolerances sit at rounding level, where
// the audit's engine.residual re-check rejects the solve.
std::vector<double> ReferenceScores(const CsrGraph& g) {
  PageRankOptions o;
  o.tolerance = 1e-13;
  o.max_iterations = 5000;
  const Result<PageRankResult> r = ComputePageRank(g, o);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->converged);
  return r->scores;
}

double L1Distance(const std::vector<double>& a, const std::vector<double>& b) {
  EXPECT_EQ(a.size(), b.size());
  double sum = 0.0;
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    sum += std::fabs(a[i] - b[i]);
  }
  return sum;
}

void ExpectEquivalent(const NamedGraph& g) {
  const bool exact = !SimdResolvesToAvx512();
  for (SweepPartition partition : kPartitions) {
    // The residual reduction tree follows the block boundaries, which
    // the partition mode moves — so the scalar oracle must share the
    // partition for residual/iteration equality to be meaningful.
    PageRankOptions scalar_options = FixedWorkOptions();
    scalar_options.partition = partition;
    scalar_options.num_threads = 1;
    const Result<PageRankResult> oracle =
        ComputePageRank(g.graph, scalar_options);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    for (int threads : kThreadCounts) {
      SCOPED_TRACE(g.name + " partition=" +
                   (partition == SweepPartition::kNodeBalanced ? "node"
                                                               : "edge") +
                   " threads=" + std::to_string(threads));
      PageRankOptions o = FixedWorkOptions();
      o.kernel = KernelVariant::kSimd;
      o.partition = partition;
      o.num_threads = threads;
      const Result<PageRankResult> r = ComputePageRank(g.graph, o);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ASSERT_EQ(r->scores.size(), oracle->scores.size());
      if (exact) {
        EXPECT_EQ(r->iterations, oracle->iterations);
        EXPECT_EQ(r->residual, oracle->residual);
        for (size_t i = 0; i < r->scores.size(); ++i) {
          ASSERT_EQ(r->scores[i], oracle->scores[i]) << "node " << i;
        }
      } else {
        for (size_t i = 0; i < r->scores.size(); ++i) {
          ASSERT_NEAR(r->scores[i], oracle->scores[i], kAvx512Tolerance)
              << "node " << i;
        }
      }
    }
  }
}

TEST(SimdEquivalenceTest, Avx512WithinToleranceOnAllGenerators) {
  // kSimd is the AVX-512 fold wherever this process may run it: a
  // capable CPU, a binary that carries the path, and no lower
  // QRANK_FORCE_SIMD_LEVEL cap. Elsewhere it must fall back to scalar.
  const bool avx512_allowed = DetectSimdLevel() == SimdLevel::kAvx512 &&
                              SimdLevelCompiled(SimdLevel::kAvx512);
  EXPECT_EQ(SimdResolvesToAvx512(), avx512_allowed);
  for (const NamedGraph& g : TestGraphs()) {
    ExpectEquivalent(g);
  }
}

TEST(SimdEquivalenceTest, BestSimdOnAllGenerators) {
  for (const NamedGraph& g : TestGraphs()) {
    ExpectEquivalent(g);
  }
}

TEST(SimdEquivalenceTest, ScalarRequestNeverDispatchesSimd) {
  // kScalar is the default and the oracle: requesting it must resolve
  // to the scalar fold even on AVX-capable hosts.
  EXPECT_EQ(rank_internal::KernelVariantLevel(KernelVariant::kScalar),
            SimdLevel::kScalar);
}

TEST(SimdEquivalenceTest, VariantNamesRoundTrip) {
  for (KernelVariant v : {KernelVariant::kScalar, KernelVariant::kSimd}) {
    KernelVariant parsed;
    ASSERT_TRUE(ParseKernelVariant(KernelVariantName(v), &parsed));
    EXPECT_EQ(parsed, v);
  }
  KernelVariant parsed;
  EXPECT_FALSE(ParseKernelVariant("sse2", &parsed));
  EXPECT_FALSE(ParseKernelVariant("avx2", &parsed));
  EXPECT_FALSE(ParseKernelVariant("avx512", &parsed));
}

TEST(SimdEquivalenceTest, WarmStartMatchesScalarWarmStart) {
  // SnapshotSeries warm-start mode: the second solve starts from the
  // first solve's scores. SIMD must agree with scalar along the whole
  // warm-started trajectory, not just from the uniform start.
  Rng rng(21);
  CsrGraph g =
      CsrGraph::FromEdgeList(GenerateBarabasiAlbert(3000, 5, &rng).value())
          .value();
  PageRankOptions cold_options;
  cold_options.tolerance = 1e-10;
  const PageRankResult cold = ComputePageRank(g, cold_options).value();

  PageRankOptions scalar_options = FixedWorkOptions();
  scalar_options.max_iterations = 30;
  scalar_options.initial_scores = cold.scores;
  const PageRankResult warm_scalar =
      ComputePageRank(g, scalar_options).value();

  PageRankOptions o = scalar_options;
  o.kernel = KernelVariant::kSimd;
  const PageRankResult warm_simd = ComputePageRank(g, o).value();
  ASSERT_EQ(warm_simd.scores.size(), warm_scalar.scores.size());
  const bool exact = !SimdResolvesToAvx512();
  for (size_t i = 0; i < warm_simd.scores.size(); ++i) {
    if (exact) {
      ASSERT_EQ(warm_simd.scores[i], warm_scalar.scores[i]) << "node " << i;
    } else {
      ASSERT_NEAR(warm_simd.scores[i], warm_scalar.scores[i],
                  kAvx512Tolerance)
          << "node " << i;
    }
  }
}

TEST(SimdEquivalenceTest, DeltaEngineSimdMatchesScalar) {
  // The incremental engine routes every per-row pull through the
  // dispatched row_pull — three calls per row on its block Gauss–Seidel
  // partial sweeps, one on its Jacobi sweeps. Chain warm generations,
  // each solved from the previous generation's answer of the same
  // variant, so any SIMD drift would compound along the chain.
  Rng rng(31);
  CsrGraph graph =
      CsrGraph::FromEdgeList(GenerateBarabasiAlbert(2000, 5, &rng).value())
          .value();
  PageRankOptions base;
  base.tolerance = 1e-11;
  const PageRankResult cold = ComputePageRank(graph, base).value();
  const bool exact = !SimdResolvesToAvx512();

  std::vector<Edge> edges;
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    for (NodeId v : graph.OutNeighbors(u)) edges.push_back({u, v});
  }
  std::vector<double> scalar_scores = cold.scores;
  std::vector<double> simd_scores = cold.scores;
  for (int generation = 1; generation <= 4; ++generation) {
    SCOPED_TRACE("generation " + std::to_string(generation));
    for (int k = 0; k < 30; ++k) {
      NodeId u = static_cast<NodeId>(rng.UniformUint64(graph.num_nodes()));
      NodeId v = static_cast<NodeId>(rng.UniformUint64(graph.num_nodes()));
      if (u != v) edges.push_back({u, v});
    }
    CsrGraph next = CsrGraph::FromEdges(graph.num_nodes(), edges).value();
    const std::vector<uint8_t> frontier =
        GraphDelta::Between(graph, next).DirtyFrontier(next);

    DeltaPageRankOptions options;
    options.base = base;
    options.base.initial_scores = scalar_scores;
    const DeltaPageRankResult scalar =
        ComputeDeltaPageRank(next, frontier, options).value();
    options.base.kernel = KernelVariant::kSimd;
    options.base.initial_scores = simd_scores;
    const DeltaPageRankResult simd =
        ComputeDeltaPageRank(next, frontier, options).value();
    ASSERT_TRUE(simd.base.converged);
    ASSERT_EQ(simd.base.scores.size(), scalar.base.scores.size());
    if (exact) {
      EXPECT_EQ(simd.base.iterations, scalar.base.iterations);
      EXPECT_EQ(simd.node_updates, scalar.node_updates);
      for (size_t i = 0; i < scalar.base.scores.size(); ++i) {
        ASSERT_EQ(simd.base.scores[i], scalar.base.scores[i]) << "node " << i;
      }
    }
    EXPECT_LE(L1Distance(simd.base.scores, ReferenceScores(next)),
              EngineBound(base));
    scalar_scores = scalar.base.scores;
    simd_scores = simd.base.scores;
    graph = std::move(next);
  }
}

void FillSeries(SnapshotSeries* s) {
  Rng rng(41);
  std::vector<Edge> edges =
      GenerateBarabasiAlbert(1500, 4, &rng).value().edges();
  for (int i = 0; i < 3; ++i) {
    const NodeId n = static_cast<NodeId>(1500 + 40 * i);
    for (int k = 0; k < 50 * i; ++k) {
      NodeId u = static_cast<NodeId>(rng.UniformUint64(n));
      NodeId v = static_cast<NodeId>(rng.UniformUint64(n));
      if (u != v) edges.push_back({u, v});
    }
    ASSERT_TRUE(
        s->AddSnapshot(i + 1.0, CsrGraph::FromEdges(n, edges).value()).ok());
  }
}

TEST(SimdEquivalenceTest, SnapshotSeriesSimdMatchesScalar) {
  // End-to-end over both series modes: warm-started from-scratch solves
  // and the incremental delta pipeline, with SIMD dispatch on.
  const bool exact = !SimdResolvesToAvx512();
  for (SeriesMode mode : {SeriesMode::kWarmStart, SeriesMode::kIncremental}) {
    SCOPED_TRACE(mode == SeriesMode::kWarmStart ? "warm start" : "incremental");
    SeriesComputeOptions o;
    o.mode = mode;
    o.pagerank.tolerance = 1e-11;
    o.pagerank.max_iterations = 2000;

    SnapshotSeries reference;
    FillSeries(&reference);
    ASSERT_TRUE(reference.ComputePageRanks(o).ok());

    o.pagerank.kernel = KernelVariant::kSimd;
    SnapshotSeries series;
    FillSeries(&series);
    ASSERT_TRUE(series.ComputePageRanks(o).ok());

    for (size_t i = 0; i < reference.num_snapshots(); ++i) {
      ASSERT_EQ(series.pagerank(i).size(), reference.pagerank(i).size());
      if (exact) {
        EXPECT_EQ(series.iterations_per_snapshot()[i],
                  reference.iterations_per_snapshot()[i])
            << "snapshot " << i;
        for (size_t p = 0; p < reference.pagerank(i).size(); ++p) {
          ASSERT_EQ(series.pagerank(i)[p], reference.pagerank(i)[p])
              << "snapshot " << i << " node " << p;
        }
      }
      EXPECT_LE(L1Distance(series.pagerank(i),
                           ReferenceScores(series.common_graph(i))),
                EngineBound(o.pagerank))
          << "snapshot " << i;
    }
  }
}

}  // namespace
}  // namespace qrank

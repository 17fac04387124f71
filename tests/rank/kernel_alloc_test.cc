// Steady-state allocation behavior of the PageRank engines.
//
// The fused kernel's contract is that Sweep() allocates nothing: all
// scratch (iterate, out-shares, reduction partials) is owned by the
// kernel and reused every iteration. The test instruments the global
// allocator and (a) proves a sequence of sweeps performs zero
// allocations, (b) proves whole-engine allocation counts do not grow
// with the iteration count for the Jacobi and delta engines — i.e. no
// hidden per-iteration scratch — and (c) proves a warm residual-push
// solve on a birth-free delta allocates nothing at all.
//
// All measured runs are single-threaded so counts are deterministic.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "counting_new.h"
#include "graph/generators.h"
#include "graph/graph_delta.h"
#include "rank/delta_pagerank.h"
#include "rank/pagerank.h"
#include "rank/pagerank_kernel.h"
#include "rank/residual_push.h"

namespace qrank {
namespace {

CsrGraph TestGraph() {
  Rng rng(1234);
  return CsrGraph::FromEdgeList(
             GenerateBarabasiAlbert(2048, 6, &rng).value())
      .value();
}

PageRankOptions UnconvergedOptions(uint32_t iterations) {
  PageRankOptions o;
  o.max_iterations = iterations;
  o.tolerance = 1e-300;  // never met: every run spends max_iterations
  o.num_threads = 1;
  return o;
}

// Constructs a kernel under `o` (construction may allocate and builds
// the cached transpose), then proves 25 sweeps allocate nothing.
void ExpectSweepsAllocationFree(const PageRankOptions& o) {
  const CsrGraph g = TestGraph();
  const double uniform = 1.0 / static_cast<double>(g.num_nodes());
  const std::vector<double> teleport(g.num_nodes(), uniform);
  rank_internal::PageRankKernel kernel(
      g, o, teleport, std::vector<double>(g.num_nodes(), uniform));
  double residual = 0.0;
  const size_t allocs = AllocationsDuring([&kernel, &residual] {
    for (int i = 0; i < 25; ++i) residual = kernel.Sweep();
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_GT(residual, 0.0);  // the sweeps really ran
}

TEST(KernelAllocTest, SweepAllocatesNothing) {
  ExpectSweepsAllocationFree(UnconvergedOptions(50));
}

TEST(KernelAllocTest, SimdSweepAllocatesNothing) {
  // Whatever level kSimd resolves to on this host (AVX-512 or the
  // scalar fallback), the lane-parallel sweep owns all its scratch.
  PageRankOptions o = UnconvergedOptions(50);
  o.kernel = KernelVariant::kSimd;
  ExpectSweepsAllocationFree(o);
}

TEST(KernelAllocTest, JacobiAllocationsIndependentOfIterationCount) {
  const CsrGraph g = TestGraph();
  g.BuildTranspose();  // shared cache; exclude the one-time build
  auto run = [&g](uint32_t iterations) {
    return AllocationsDuring([&g, iterations] {
      auto r = ComputePageRank(g, UnconvergedOptions(iterations));
      ASSERT_EQ(r->iterations, iterations);
    });
  };
  run(5);  // warm-up: first-call effects (locale, gtest internals)
  const size_t short_run = run(5);
  const size_t long_run = run(50);
  EXPECT_EQ(short_run, long_run);
  EXPECT_GT(short_run, 0u);  // result + kernel setup do allocate
}

TEST(KernelAllocTest, DeltaEngineAllocationsIndependentOfIterationCount) {
  const CsrGraph g = TestGraph();
  g.BuildTranspose();
  // Mark a small frontier dirty so the frozen-set machinery engages.
  std::vector<uint8_t> dirty(g.num_nodes(), 0);
  for (NodeId u = 0; u < 32; ++u) dirty[u] = 1;
  auto run = [&g, &dirty](uint32_t iterations) {
    return AllocationsDuring([&g, &dirty, iterations] {
      DeltaPageRankOptions o;
      o.base = UnconvergedOptions(iterations);
      auto r = ComputeDeltaPageRank(g, dirty, o);
      ASSERT_TRUE(r.ok());
    });
  };
  run(5);  // warm-up
  const size_t short_run = run(5);
  const size_t long_run = run(50);
  EXPECT_EQ(short_run, long_run);
}

TEST(KernelAllocTest, WarmResidualPushAllocatesNothing) {
  const CsrGraph g = TestGraph();
  // A birth-free delta: drop one out-link of page 5, add one elsewhere.
  const NodeId dropped = g.OutNeighbors(5)[0];
  NodeId target = 0;
  while (target == 9 || g.HasEdge(9, target)) ++target;
  GraphDelta delta;
  delta.old_num_nodes = delta.new_num_nodes = g.num_nodes();
  delta.added = {{9, target}};
  delta.removed = {{5, dropped}};
  const CsrGraph next = g.ApplyDelta(delta).value();
  next.BuildTranspose();

  DeltaPageRankOptions o;
  o.base.num_threads = 1;
  ResidualPushTracker tracker(o);
  std::vector<double> scores;
  ASSERT_TRUE(tracker.Solve(g, GraphDelta{}, &scores).ok());  // cold start
  ResidualPushStats stats;
  const size_t allocs = AllocationsDuring([&] {
    stats = tracker.Solve(next, delta, &scores).value();
  });
  // At audit level 2 the engine.residual validator re-checks every
  // certified result on a copy of the scores; the zero-allocation
  // contract is the one of the production (level 0 and 1) builds.
  if constexpr (QRANK_AUDIT_LEVEL < 2) {
    EXPECT_EQ(allocs, 0u);
  }
  EXPECT_GT(stats.pushes, 0u);  // the push really ran
  EXPECT_TRUE(stats.converged);
}

}  // namespace
}  // namespace qrank

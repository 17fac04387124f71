// Performance of the PageRank engines (google-benchmark).
//
// Covers the repro hint "efficient sparse matrix PageRank": power
// iteration vs Gauss-Seidel vs adaptive vs quadratic extrapolation on
// Barabasi-Albert graphs of growing size, at the tolerance used by the
// Section 8 pipeline. Iteration counts are exported as counters so the
// acceleration claims of [11]/[12] are visible alongside wall-clock.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/parallel_for.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "graph/reorder.h"
#include "rank/adaptive_pagerank.h"
#include "rank/extrapolation.h"
#include "rank/opic.h"
#include "rank/pagerank.h"
#include "rank/sweep_ops.h"

namespace {

// Set by --order= / --partition= / --kernel= in main; consumed by the
// site-locality benchmarks below. The BM_PageRankKernel
// family ignores these and pins its own variants so the regression gate
// always compares scalar vs SIMD within one run.
qrank::NodeOrdering g_order = qrank::NodeOrdering::kIdentity;
qrank::SweepPartition g_partition = qrank::SweepPartition::kEdgeBalanced;
qrank::KernelVariant g_kernel = qrank::KernelVariant::kScalar;

qrank::CsrGraph MakeGraph(int64_t nodes, uint32_t out_degree = 8) {
  qrank::Rng rng(1234);
  return qrank::CsrGraph::FromEdgeList(
             qrank::GenerateBarabasiAlbert(
                 static_cast<qrank::NodeId>(nodes), out_degree, &rng)
                 .value())
      .value();
}

qrank::PageRankOptions BaseOptions() {
  qrank::PageRankOptions o;
  o.tolerance = 1e-9;
  o.max_iterations = 1000;
  return o;
}

void BM_PageRankPower(benchmark::State& state) {
  qrank::CsrGraph g = MakeGraph(state.range(0));
  qrank::PageRankOptions o = BaseOptions();
  uint32_t iterations = 0;
  for (auto _ : state) {
    auto r = qrank::ComputePageRank(g, o);
    iterations = r->iterations;
    benchmark::DoNotOptimize(r->scores.data());
  }
  state.counters["iters"] = iterations;
  state.counters["edges/s"] = benchmark::Counter(
      static_cast<double>(g.num_edges()) * iterations,
      benchmark::Counter::kIsIterationInvariantRate);
}

void BM_PageRankGaussSeidel(benchmark::State& state) {
  qrank::CsrGraph g = MakeGraph(state.range(0));
  qrank::PageRankOptions o = BaseOptions();
  uint32_t iterations = 0;
  for (auto _ : state) {
    auto r = qrank::ComputePageRankGaussSeidel(g, o);
    iterations = r->iterations;
    benchmark::DoNotOptimize(r->scores.data());
  }
  state.counters["iters"] = iterations;
}

void BM_PageRankAdaptive(benchmark::State& state) {
  qrank::CsrGraph g = MakeGraph(state.range(0));
  qrank::AdaptivePageRankOptions o;
  o.base = BaseOptions();
  o.freeze_threshold = 1e-6;
  uint32_t iterations = 0;
  uint64_t updates = 0;
  for (auto _ : state) {
    auto r = qrank::ComputeAdaptivePageRank(g, o);
    iterations = r->base.iterations;
    updates = r->node_updates;
    benchmark::DoNotOptimize(r->base.scores.data());
  }
  state.counters["iters"] = iterations;
  state.counters["upd/iter/node"] =
      static_cast<double>(updates) /
      (static_cast<double>(iterations) * static_cast<double>(g.num_nodes()));
}

void BM_PageRankExtrapolated(benchmark::State& state) {
  qrank::CsrGraph g = MakeGraph(state.range(0));
  qrank::ExtrapolatedPageRankOptions o;
  o.base = BaseOptions();
  uint32_t iterations = 0;
  for (auto _ : state) {
    auto r = qrank::ComputeExtrapolatedPageRank(g, o);
    iterations = r->base.iterations;
    benchmark::DoNotOptimize(r->base.scores.data());
  }
  state.counters["iters"] = iterations;
}

void BM_OpicSweeps(benchmark::State& state) {
  // Online importance: cost of 10 OPIC sweeps (usable estimates arrive
  // long before full convergence; see tests/rank/opic_test.cc).
  qrank::CsrGraph g = MakeGraph(state.range(0));
  for (auto _ : state) {
    auto opic = qrank::OpicComputer::Create(&g);
    opic->RunSweeps(10);
    benchmark::DoNotOptimize(opic->Importance().data());
  }
}

void BM_PageRankWarmStart(benchmark::State& state) {
  // Iterations saved by warm-starting from a slightly perturbed
  // solution (the cross-snapshot case of SnapshotSeries).
  qrank::CsrGraph g = MakeGraph(8192);
  qrank::PageRankOptions o = BaseOptions();
  auto cold = qrank::ComputePageRank(g, o);
  const bool warm = state.range(0) == 1;
  if (warm) o.initial_scores = cold->scores;
  uint32_t iterations = 0;
  for (auto _ : state) {
    auto r = qrank::ComputePageRank(g, o);
    iterations = r->iterations;
    benchmark::DoNotOptimize(r->scores.data());
  }
  state.counters["iters"] = iterations;
}

void BM_PageRankHighDamping(benchmark::State& state) {
  // Damping 0.95: slow spectral gap; where extrapolation pays off most.
  qrank::CsrGraph g = MakeGraph(8192);
  qrank::PageRankOptions o = BaseOptions();
  o.damping = 0.95;
  const bool extrapolate = state.range(0) == 1;
  uint32_t iterations = 0;
  for (auto _ : state) {
    if (extrapolate) {
      qrank::ExtrapolatedPageRankOptions eo;
      eo.base = o;
      auto r = qrank::ComputeExtrapolatedPageRank(g, eo);
      iterations = r->base.iterations;
      benchmark::DoNotOptimize(r->base.scores.data());
    } else {
      auto r = qrank::ComputePageRank(g, o);
      iterations = r->iterations;
      benchmark::DoNotOptimize(r->scores.data());
    }
  }
  state.counters["iters"] = iterations;
}

void BM_PageRankPowerThreads(benchmark::State& state) {
  // Thread sweep at acceptance scale: Barabasi-Albert n = 2^18, m = 8
  // (~2M edges after dedup). Fixed 20 iterations so every thread count
  // does identical work; the parallel-equivalence test proves the scores
  // are bit-identical across this sweep.
  static qrank::CsrGraph g = MakeGraph(1 << 18);
  g.BuildTranspose();  // shared cache; build outside the timed region
  qrank::PageRankOptions o = BaseOptions();
  o.max_iterations = 20;
  o.tolerance = 1e-300;  // never met: fixed work per run
  o.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto r = qrank::ComputePageRank(g, o);
    benchmark::DoNotOptimize(r->scores.data());
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
  state.counters["edges/s"] = benchmark::Counter(
      static_cast<double>(g.num_edges()) * 20.0,
      benchmark::Counter::kIsIterationInvariantRate);
}

// Site-clustered web (num_sites x 200 pages at ~13 links/page, the
// Section 8 crawl shape) under a fixed pseudorandom relabeling. The
// generator emits each site's pages contiguously — already near-optimal
// cache layout — but a real crawl discovers pages interleaved across
// sites, so the benchmark input models that crawl order. This is the
// labeling the --order= reorderings recover locality from.
qrank::CsrGraph MakeCrawlOrderSiteGraph(qrank::NodeId num_sites) {
  qrank::Rng rng(99);
  qrank::CsrGraph g =
      qrank::CsrGraph::FromEdgeList(
          qrank::GenerateSiteClustered(num_sites, 200, 12, 6, &rng).value())
          .value();
  std::vector<qrank::NodeId> scramble(g.num_nodes());
  std::iota(scramble.begin(), scramble.end(), qrank::NodeId{0});
  for (qrank::NodeId i = g.num_nodes(); i > 1; --i) {
    std::swap(scramble[i - 1], scramble[rng.UniformUint64(i)]);
  }
  return g.Permute(scramble).value();
}

struct SiteLocalityCase {
  qrank::CsrGraph crawl;
  qrank::ReorderedGraph reordered;
  double linf = 0.0;  // L-inf distance from the identity-order scores
};

SiteLocalityCase MakeSiteLocalityCase(qrank::NodeId num_sites) {
  SiteLocalityCase c;
  c.crawl = MakeCrawlOrderSiteGraph(num_sites);
  c.reordered = qrank::ReorderGraph(c.crawl, g_order).value();
  qrank::PageRankOptions ref = BaseOptions();
  ref.max_iterations = 20;
  ref.tolerance = 1e-300;
  ref.partition = g_partition;
  ref.num_threads = 1;
  const std::vector<double> ours = qrank::RemapToOriginal(
      qrank::ComputePageRank(c.reordered.graph, ref)->scores,
      c.reordered.perm);
  const std::vector<double> base =
      qrank::ComputePageRank(c.crawl, ref)->scores;
  for (size_t i = 0; i < base.size(); ++i) {
    c.linf = std::max(c.linf, std::fabs(ours[i] - base[i]));
  }
  return c;
}

void RunSiteLocality(benchmark::State& state, const SiteLocalityCase& c) {
  // The acceptance benchmark of the reordering work: fixed 20 Jacobi
  // iterations on the crawl-order graph relabeled by --order= and
  // partitioned by --partition=, across a thread sweep. The
  // linf_vs_identity counter is the L-infinity distance (after mapping
  // back to crawl-order ids) from the identity-ordering scores — the
  // 1e-12 agreement contract that makes the orderings interchangeable.
  qrank::PageRankOptions o = BaseOptions();
  o.max_iterations = 20;
  o.tolerance = 1e-300;  // never met: fixed work per run
  o.partition = g_partition;
  o.kernel = g_kernel;
  o.num_threads = static_cast<int>(state.range(0));
  c.reordered.graph.BuildTranspose();  // outside the timed region
  for (auto _ : state) {
    auto r = qrank::ComputePageRank(c.reordered.graph, o);
    benchmark::DoNotOptimize(r->scores.data());
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
  state.counters["linf_vs_identity"] = c.linf;
  state.counters["edges/s"] = benchmark::Counter(
      static_cast<double>(c.reordered.graph.num_edges()) * 20.0,
      benchmark::Counter::kIsIterationInvariantRate);
}

void BM_PageRankSiteLocality(benchmark::State& state) {
  // 131k pages: the score arrays fit mid-level cache on big-LLC hosts,
  // so the ordering win here is the lower bound of the effect.
  static const SiteLocalityCase c = MakeSiteLocalityCase(655);
  RunSiteLocality(state, c);
}

void BM_PageRankSiteLocalityXL(benchmark::State& state) {
  // 1M pages: the gathered out-share array (8 MB) exceeds any private
  // cache, the regime the reordering is actually for.
  static const SiteLocalityCase c = MakeSiteLocalityCase(5000);
  RunSiteLocality(state, c);
}

// ---------------------------------------------------------------------------
// Kernel throughput: scalar vs SIMD on the sitexl graph under the
// --order= relabeling. Fixed 20 Jacobi iterations; counters carry
// edges/s and the resolved dispatch level, and the
// --check_kernel_regression gate in main reads them back.
// ---------------------------------------------------------------------------

const qrank::CsrGraph& KernelGraph() {
  static const qrank::CsrGraph g = [] {
    qrank::CsrGraph crawl = MakeCrawlOrderSiteGraph(5000);
    qrank::CsrGraph ordered =
        std::move(qrank::ReorderGraph(crawl, g_order).value().graph);
    ordered.BuildTranspose();
    return ordered;
  }();
  return g;
}

void RunKernelThroughput(benchmark::State& state,
                         qrank::KernelVariant kernel) {
  const qrank::CsrGraph& g = KernelGraph();
  qrank::PageRankOptions o = BaseOptions();
  o.max_iterations = 20;
  o.tolerance = 1e-300;  // never met: fixed work per run
  o.partition = g_partition;
  o.kernel = kernel;
  o.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto r = qrank::ComputePageRank(g, o);
    benchmark::DoNotOptimize(r->scores.data());
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
  state.counters["simd_level"] = static_cast<double>(
      qrank::rank_internal::KernelVariantLevel(kernel));
  state.counters["edges/s"] = benchmark::Counter(
      static_cast<double>(g.num_edges()) * 20.0,
      benchmark::Counter::kIsIterationInvariantRate);
}

void BM_PageRankKernelScalar(benchmark::State& state) {
  RunKernelThroughput(state, qrank::KernelVariant::kScalar);
}
void BM_PageRankKernelSimd(benchmark::State& state) {
  RunKernelThroughput(state, qrank::KernelVariant::kSimd);
}

// --check_kernel_regression: on an AVX-512 host, fails the process
// unless, within this very run, (a) the SIMD kernel beat the scalar
// oracle on sitexl by --min_simd_speedup (default 1.2x; within-run
// ratios survive host changes where absolute floors do not) and (b)
// SIMD throughput cleared --min_simd_edges_per_s (default 700M/s, the
// PR acceptance floor of 2x the 355M/s the scalar kernel shipped at).
int CheckKernelRegression(const std::vector<qrank_bench::BenchRow>& rows,
                          double min_speedup, double min_edges_per_s) {
  auto find = [&rows](const std::string& name) -> const qrank_bench::BenchRow* {
    for (const qrank_bench::BenchRow& r : rows) {
      if (r.name.rfind(name, 0) == 0) return &r;
    }
    return nullptr;
  };
  const qrank_bench::BenchRow* scalar = find("BM_PageRankKernelScalar/");
  const qrank_bench::BenchRow* simd = find("BM_PageRankKernelSimd/");
  if (scalar == nullptr || simd == nullptr) {
    std::fprintf(stderr,
                 "check_kernel_regression: kernel benchmarks missing from "
                 "this run (use a filter that keeps BM_PageRankKernel*)\n");
    return 1;
  }
  const double scalar_rate = scalar->Counter("edges/s");
  const double simd_rate = simd->Counter("edges/s");
  const double speedup = scalar_rate > 0.0 ? simd_rate / scalar_rate : 0.0;
  if (simd->Counter("simd_level") !=
      static_cast<double>(qrank::SimdLevel::kAvx512)) {
    // Scalar-only host or build: kSimd ran the scalar oracle, so there
    // is no speedup to gate.
    std::fprintf(stderr,
                 "check_kernel_regression: AVX-512 unavailable; skipping "
                 "throughput gates\n");
    return 0;
  }
  int rc = 0;
  if (speedup < min_speedup) {
    std::fprintf(stderr,
                 "check_kernel_regression: FAIL simd/scalar speedup "
                 "%.2fx < %.2fx (scalar %.3g simd %.3g edges/s)\n",
                 speedup, min_speedup, scalar_rate, simd_rate);
    rc = 1;
  }
  if (simd_rate < min_edges_per_s) {
    std::fprintf(stderr,
                 "check_kernel_regression: FAIL simd throughput %.3g "
                 "edges/s < floor %.3g\n",
                 simd_rate, min_edges_per_s);
    rc = 1;
  }
  if (rc == 0) {
    std::fprintf(stderr,
                 "check_kernel_regression: PASS speedup %.2fx, simd %.3g "
                 "edges/s\n",
                 speedup, simd_rate);
  }
  return rc;
}

}  // namespace

BENCHMARK(BM_PageRankPower)->Arg(1024)->Arg(8192)->Arg(65536)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PageRankPowerThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()
    ->UseRealTime();
BENCHMARK(BM_PageRankGaussSeidel)->Arg(1024)->Arg(8192)->Arg(65536)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PageRankAdaptive)->Arg(1024)->Arg(8192)->Arg(65536)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PageRankExtrapolated)->Arg(1024)->Arg(8192)->Arg(65536)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PageRankHighDamping)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OpicSweeps)->Arg(1024)->Arg(8192)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PageRankWarmStart)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PageRankSiteLocality)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()
    ->UseRealTime();
BENCHMARK(BM_PageRankSiteLocalityXL)->Arg(1)->Arg(8)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()
    ->UseRealTime();
BENCHMARK(BM_PageRankKernelScalar)->Arg(1)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()
    ->UseRealTime();
BENCHMARK(BM_PageRankKernelSimd)->Arg(1)->Arg(8)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()
    ->UseRealTime();

// Shared BenchMain handles --threads= and the BENCH_pagerank.json
// output. Stripped here: --order=identity|degree|bfs|hybrid and
// --partition=node|edge relabel/partition the site-locality and kernel
// suites; --kernel=scalar|simd steers the site-locality benchmarks (the
// kernel suite pins its own variants); --check_kernel_regression[=BOOL]
// plus the --min_simd_speedup= / --min_simd_edges_per_s= floors turn
// the run into a CI gate.
int main(int argc, char** argv) {
  bool check_regression = false;
  double min_speedup = 1.2;
  double min_edges_per_s = 7e8;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--order=", 0) == 0) {
      g_order = qrank::ParseNodeOrdering(a.substr(8)).value();
      continue;
    }
    if (a.rfind("--partition=", 0) == 0) {
      if (!qrank::ParseSweepPartition(a.substr(12), &g_partition)) {
        std::fprintf(stderr, "bad --partition= value '%s'\n",
                     a.substr(12).c_str());
        return 1;
      }
      continue;
    }
    if (a.rfind("--kernel=", 0) == 0) {
      if (!qrank::ParseKernelVariant(a.substr(9), &g_kernel)) {
        std::fprintf(stderr, "bad --kernel= value '%s'\n",
                     a.substr(9).c_str());
        return 1;
      }
      continue;
    }
    if (a == "--check_kernel_regression" ||
        a == "--check_kernel_regression=true") {
      check_regression = true;
      continue;
    }
    if (a.rfind("--min_simd_speedup=", 0) == 0) {
      min_speedup = std::atof(a.c_str() + 19);
      continue;
    }
    if (a.rfind("--min_simd_edges_per_s=", 0) == 0) {
      min_edges_per_s = std::atof(a.c_str() + 23);
      continue;
    }
    args.push_back(argv[i]);
  }
  return qrank_bench::BenchMain(
      static_cast<int>(args.size()), args.data(), "pagerank",
      [&](const std::vector<qrank_bench::BenchRow>& rows) {
        return check_regression
                   ? CheckKernelRegression(rows, min_speedup, min_edges_per_s)
                   : 0;
      });
}

// Performance of the substrate layers (google-benchmark): CSR
// construction, transpose, delta application, dynamic-graph snapshot
// extraction, simulator stepping, alias-table sampling, and graph
// generators.

#include <benchmark/benchmark.h>

#include "bench_json.h"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel_for.h"
#include "common/rng.h"
#include "graph/dynamic_graph.h"
#include "graph/generators.h"
#include "graph/graph_delta.h"
#include "sim/web_simulator.h"

namespace {

void BM_CsrBuild(benchmark::State& state) {
  qrank::Rng rng(7);
  qrank::EdgeList edges =
      qrank::GenerateBarabasiAlbert(
          static_cast<qrank::NodeId>(state.range(0)), 8, &rng)
          .value();
  for (auto _ : state) {
    auto g = qrank::CsrGraph::FromEdgeList(edges);
    benchmark::DoNotOptimize(g.value().num_edges());
  }
  state.counters["edges/s"] = benchmark::Counter(
      static_cast<double>(edges.num_edges()),
      benchmark::Counter::kIsIterationInvariantRate);
}

void BM_CsrTranspose(benchmark::State& state) {
  qrank::Rng rng(7);
  qrank::CsrGraph g =
      qrank::CsrGraph::FromEdgeList(
          qrank::GenerateBarabasiAlbert(
              static_cast<qrank::NodeId>(state.range(0)), 8, &rng)
              .value())
          .value();
  for (auto _ : state) {
    qrank::CsrGraph t = g.Transpose();
    benchmark::DoNotOptimize(t.num_edges());
    // Copy with a fresh cache each round: measure the transpose itself.
    state.PauseTiming();
    g = qrank::CsrGraph::FromEdges(
            g.num_nodes(),
            [&] {
              std::vector<qrank::Edge> e;
              for (qrank::NodeId u = 0; u < g.num_nodes(); ++u) {
                for (qrank::NodeId v : g.OutNeighbors(u)) {
                  e.push_back({u, v});
                }
              }
              return e;
            }())
            .value();
    state.ResumeTiming();
  }
}

void BM_ApplyDelta(benchmark::State& state) {
  // One ingest generation's graph update: the 131k-page site graph the
  // ingest benches use, transpose cached, patched by a delta of
  // range(0) added and range(1) removed edges. Iterations alternate the
  // delta and its inverse, so every application is valid and the graph
  // stays the same size.
  qrank::Rng rng(41);
  qrank::CsrGraph graph =
      qrank::CsrGraph::FromEdgeList(
          qrank::GenerateSiteClustered(655, 200, 12, 6, &rng).value())
          .value();
  graph.BuildTranspose();
  const qrank::NodeId n = graph.num_nodes();
  qrank::GraphDelta forward;
  forward.old_num_nodes = forward.new_num_nodes = n;
  while (forward.added.size() < static_cast<size_t>(state.range(0))) {
    const auto u = static_cast<qrank::NodeId>(rng.UniformUint64(n));
    const auto v = static_cast<qrank::NodeId>(rng.UniformUint64(n));
    if (u == v || graph.HasEdge(u, v)) continue;
    forward.added.push_back({u, v});
    std::sort(forward.added.begin(), forward.added.end());
    forward.added.erase(
        std::unique(forward.added.begin(), forward.added.end()),
        forward.added.end());
  }
  while (forward.removed.size() < static_cast<size_t>(state.range(1))) {
    const auto u = static_cast<qrank::NodeId>(rng.UniformUint64(n));
    if (graph.OutDegree(u) == 0) continue;
    const auto nbrs = graph.OutNeighbors(u);
    forward.removed.push_back({u, nbrs[rng.UniformUint64(nbrs.size())]});
    std::sort(forward.removed.begin(), forward.removed.end());
    forward.removed.erase(
        std::unique(forward.removed.begin(), forward.removed.end()),
        forward.removed.end());
  }
  qrank::GraphDelta inverse = forward;
  std::swap(inverse.added, inverse.removed);
  bool flip = false;
  for (auto _ : state) {
    graph = graph.ApplyDelta(flip ? inverse : forward).value();
    flip = !flip;
    benchmark::DoNotOptimize(graph.num_edges());
  }
  state.counters["delta_edges"] =
      static_cast<double>(forward.num_changes());
  state.counters["edges"] = static_cast<double>(graph.num_edges());
}

void BM_DynamicSnapshot(benchmark::State& state) {
  // A dynamic graph with state.range(0) live edges; extract a CSR.
  qrank::DynamicGraph dyn;
  const qrank::NodeId n = 4096;
  dyn.AddNodes(n, 0.0);
  qrank::Rng rng(13);
  int64_t added = 0;
  while (added < state.range(0)) {
    auto u = static_cast<qrank::NodeId>(rng.UniformUint64(n));
    auto v = static_cast<qrank::NodeId>(rng.UniformUint64(n));
    if (u != v && dyn.AddEdge(u, v, 1.0).ok()) ++added;
  }
  for (auto _ : state) {
    auto g = dyn.SnapshotAt(2.0);
    benchmark::DoNotOptimize(g.value().num_edges());
  }
  state.counters["edges/s"] = benchmark::Counter(
      static_cast<double>(added),
      benchmark::Counter::kIsIterationInvariantRate);
}

void BM_SimulatorStep(benchmark::State& state) {
  qrank::WebSimulatorOptions o;
  o.num_users = static_cast<uint32_t>(state.range(0));
  o.seed = 3;
  o.page_birth_rate = 10.0;
  qrank::WebSimulator sim = qrank::WebSimulator::Create(o).value();
  // Warm to mid-expansion so the step cost is representative.
  (void)sim.AdvanceTo(10.0);
  uint64_t visits_before = sim.total_visits();
  for (auto _ : state) {
    sim.Step();
  }
  state.counters["visits/s"] = benchmark::Counter(
      static_cast<double>(sim.total_visits() - visits_before),
      benchmark::Counter::kIsRate);
}

void BM_AliasTableSample(benchmark::State& state) {
  qrank::Rng rng(17);
  std::vector<double> weights(static_cast<size_t>(state.range(0)));
  for (double& w : weights) w = rng.Pareto(1.0, 1.5);
  qrank::AliasTable table(weights);
  qrank::Rng sampler(19);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Sample(&sampler));
  }
}

void BM_GenerateBarabasiAlbert(benchmark::State& state) {
  for (auto _ : state) {
    qrank::Rng rng(23);
    auto e = qrank::GenerateBarabasiAlbert(
        static_cast<qrank::NodeId>(state.range(0)), 8, &rng);
    benchmark::DoNotOptimize(e.value().num_edges());
  }
}

void BM_GenerateErdosRenyi(benchmark::State& state) {
  for (auto _ : state) {
    qrank::Rng rng(29);
    auto e = qrank::GenerateErdosRenyi(
        static_cast<qrank::NodeId>(state.range(0)), 8.0 / state.range(0),
        &rng);
    benchmark::DoNotOptimize(e.value().num_edges());
  }
}

void BM_ParallelReduceThreads(benchmark::State& state) {
  // The raw substrate primitive: tree-reduce 2^22 doubles. The result is
  // bit-identical across the sweep (fixed block structure).
  std::vector<double> values(size_t{1} << 22);
  qrank::Rng rng(31);
  for (double& v : values) v = rng.UniformDouble();
  qrank::ParallelOptions par;
  par.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    double sum = qrank::ParallelReduce(
        values.size(),
        [&](size_t lo, size_t hi) {
          double s = 0.0;
          for (size_t i = lo; i < hi; ++i) s += values[i];
          return s;
        },
        par);
    benchmark::DoNotOptimize(sum);
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
}

void BM_CsrTransposeThreads(benchmark::State& state) {
  // Transpose of a ~2M-edge graph under the thread sweep; a fresh graph
  // per round so the cached transpose never short-circuits the work.
  qrank::Rng rng(7);
  qrank::EdgeList edges =
      qrank::GenerateBarabasiAlbert(1 << 18, 8, &rng).value();
  qrank::SetDefaultThreads(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    state.PauseTiming();
    qrank::CsrGraph g = qrank::CsrGraph::FromEdgeList(edges).value();
    state.ResumeTiming();
    g.BuildTranspose();
    benchmark::DoNotOptimize(g.InDegree(0));
  }
  qrank::SetDefaultThreads(0);
  state.counters["threads"] = static_cast<double>(state.range(0));
  state.counters["edges/s"] = benchmark::Counter(
      static_cast<double>(edges.num_edges()),
      benchmark::Counter::kIsIterationInvariantRate);
}

void BM_SimulatorStepThreads(benchmark::State& state) {
  // One simulator step with the parallel visit-sampling pass; the
  // equivalence test proves identical trajectories across this sweep.
  qrank::WebSimulatorOptions o;
  o.num_users = 20000;
  o.seed = 3;
  o.page_birth_rate = 10.0;
  o.num_threads = static_cast<int>(state.range(0));
  qrank::WebSimulator sim = qrank::WebSimulator::Create(o).value();
  (void)sim.AdvanceTo(10.0);
  uint64_t visits_before = sim.total_visits();
  for (auto _ : state) {
    sim.Step();
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
  state.counters["visits/s"] = benchmark::Counter(
      static_cast<double>(sim.total_visits() - visits_before),
      benchmark::Counter::kIsRate);
}

}  // namespace

BENCHMARK(BM_CsrBuild)->Arg(4096)->Arg(32768)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CsrTranspose)->Arg(4096)->Arg(32768)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ApplyDelta)->Args({57, 20})->Args({1517, 533})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DynamicSnapshot)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimulatorStep)->Arg(500)->Arg(2000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AliasTableSample)->Arg(1000)->Arg(1000000);
BENCHMARK(BM_GenerateBarabasiAlbert)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GenerateErdosRenyi)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ParallelReduceThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_CsrTransposeThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_SimulatorStepThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Shared BenchMain: --threads= handling plus BENCH_substrate.json output.
int main(int argc, char** argv) {
  return qrank_bench::BenchMain(argc, argv, "substrate");
}

// Serving-layer benchmarks (google-benchmark): QueryEngine::TopK QPS
// and latency over a score bundle built from the 131k-page site graph
// (655 sites x 200 pages, the same shape the reorder suite uses).
//
// The bundle carries a real PageRank vector of that graph (mass-n
// convention) and a quality vector derived from it the way the
// estimator would (PR scaled by a per-page relative-increase factor),
// so the score distributions — and therefore the threshold algorithm's
// stopping depth — are the ones the serving layer actually sees.
//
// Suites:
//   BM_BundlePublish       source -> writer -> published LoadedBundle,
//                          the in-process path (pages/s)
//   BM_BundleWrite         source -> writer -> image with CRCs, the
//                          file/wire path (pages/s)
//   BM_BundleLoad          image -> validated LoadedBundle (pages/s)
//   BM_TopK/alpha:*        single-thread QPS per blend mode
//   BM_TopKSite/*          per-site filtered queries (site rotates)
//   BM_TopKExplore         Pandey exploration mix enabled
//   BM_TopKThreads/*       concurrent readers on one shared store
//   BM_TopKHotSwap         reader QPS + sampled p50/p99 latency while
//                          a background publisher churns generations
//   BM_Publish             hot-swap publish cost itself
//
// With --distributed the binary instead benches the sharded tier: the
// same 131k bundle is split by site into N shards, each served by an
// in-process WorkerServer on a loopback socket, and BM_DistTopK drives
// the coordinator's fan-out/merge round trip end to end:
//   BM_DistTopK/shards:*        deterministic global queries, QPS +
//                               per-query p50/p99 over the socket RTT
//   BM_DistTopKExplore/shards:4 exploration replay + resolve wave
// The suite writes BENCH_serve_dist.json instead of BENCH_serve.json.
//
// With --check_serve_regression the process exits non-zero when the
// single-thread pure-quality QPS falls under the CI floor (a
// conservative fraction of the >= 1M/s this suite shows on dedicated
// hardware) or the hot-swap churn rows are missing/zero — the Release
// bench job's smoke gate. Combined with --distributed the gate instead
// checks every BM_DistTopK row at 2/4/8 shards: QPS floor, p99
// ceiling, and zero degraded queries (a degraded answer on an idle
// loopback deployment means the deadline machinery misfired).

#include <benchmark/benchmark.h>

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "common/rng.h"
#include "dist/coordinator.h"
#include "dist/shard_map.h"
#include "dist/worker.h"
#include "graph/generators.h"
#include "rank/pagerank.h"
#include "serve/query_engine.h"
#include "serve/score_bundle.h"
#include "serve/snapshot_store.h"

namespace {

using qrank::CsrGraph;
using qrank::kAllSites;
using qrank::LoadedBundle;
using qrank::NodeId;
using qrank::QueryEngine;
using qrank::ScoreBundleSource;
using qrank::ScoreBundleWriter;
using qrank::SiteId;
using qrank::SnapshotStore;
using qrank::TopKQuery;
using qrank::TopKScratch;

constexpr NodeId kNumSites = 655;
constexpr NodeId kPagesPerSite = 200;  // 131k pages total

// PageRank of the site-clustered graph plus an estimator-shaped quality
// vector; `seed` varies the quality factors so churned generations
// differ.
ScoreBundleSource MakeSource(uint64_t seed) {
  static const std::vector<double>* pagerank = [] {
    qrank::Rng rng(99);
    const CsrGraph g =
        CsrGraph::FromEdgeList(
            qrank::GenerateSiteClustered(kNumSites, kPagesPerSite, 12, 6,
                                         &rng)
                .value())
            .value();
    qrank::PageRankOptions o;
    o.max_iterations = 30;
    o.scale = qrank::ScaleConvention::kTotalMassN;
    return new std::vector<double>(
        qrank::ComputePageRank(g, o).value().scores);
  }();
  ScoreBundleSource src;
  src.pagerank = *pagerank;
  const NodeId n = static_cast<NodeId>(src.pagerank.size());
  src.quality.resize(n);
  src.site_ids.resize(n);
  qrank::Rng rng(seed);
  for (NodeId i = 0; i < n; ++i) {
    // Q = C*I + PR with a random relative increase I/PR in [-0.5, 2].
    src.quality[i] = src.pagerank[i] * (1.0 + rng.UniformDouble(-0.5, 2.0));
    src.site_ids[i] = i / kPagesPerSite;
  }
  src.num_sites = kNumSites;
  src.creator_tag = static_cast<uint32_t>(seed);
  return src;
}

std::vector<uint8_t> MakeImage(uint64_t seed) {
  return ScoreBundleWriter::Create(MakeSource(seed)).value().Serialize();
}

const LoadedBundle& Bundle() {
  static const LoadedBundle b =
      LoadedBundle::FromBuffer(MakeImage(7)).value();
  return b;
}

TopKQuery BlendQuery(int alpha_pct, uint32_t k) {
  TopKQuery q;
  q.k = k;
  q.blend_alpha = alpha_pct / 100.0;
  return q;
}

void ReportQps(benchmark::State& state) {
  state.counters["qps"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}

// The in-process publish: the writer's image build (column copies,
// score-order sorts, site postings) adopted by a LoadedBundle with no
// copy and no CRC — the export stage of an ingest generation, minus
// the estimator. The per-iteration source copy is timed too.
void BM_BundlePublish(benchmark::State& state) {
  const ScoreBundleSource source = MakeSource(7);
  for (auto _ : state) {
    auto bundle = ScoreBundleWriter::Create(source).value().Publish();
    benchmark::DoNotOptimize(bundle.value().num_pages());
  }
  state.counters["pages/s"] = benchmark::Counter(
      static_cast<double>(source.quality.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}

// The file/wire path: the same build plus the Serialize() copy and its
// payload CRC. The per-iteration source copy is timed too.
void BM_BundleWrite(benchmark::State& state) {
  const ScoreBundleSource source = MakeSource(7);
  for (auto _ : state) {
    auto writer = ScoreBundleWriter::Create(source);
    benchmark::DoNotOptimize(writer.value().Serialize().size());
  }
  state.counters["pages/s"] = benchmark::Counter(
      static_cast<double>(source.quality.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}

void BM_BundleLoad(benchmark::State& state) {
  const std::vector<uint8_t> image = MakeImage(7);
  for (auto _ : state) {
    std::vector<uint8_t> copy = image;  // FromBuffer adopts its argument
    auto bundle = LoadedBundle::FromBuffer(std::move(copy));
    benchmark::DoNotOptimize(bundle.value().num_pages());
  }
  state.counters["pages/s"] = benchmark::Counter(
      static_cast<double>(Bundle().num_pages()),
      benchmark::Counter::kIsIterationInvariantRate);
}

void BM_TopK(benchmark::State& state) {
  const LoadedBundle& bundle = Bundle();
  const TopKQuery q = BlendQuery(static_cast<int>(state.range(0)),
                                 static_cast<uint32_t>(state.range(1)));
  TopKScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(QueryEngine::TopKOnBundle(bundle, q, &scratch).ok());
    benchmark::DoNotOptimize(scratch.results().data());
  }
  ReportQps(state);
}

void BM_TopKSite(benchmark::State& state) {
  const LoadedBundle& bundle = Bundle();
  TopKQuery q = BlendQuery(static_cast<int>(state.range(0)), 10);
  TopKScratch scratch;
  SiteId site = 0;
  for (auto _ : state) {
    q.site = site;
    if (++site == kNumSites) site = 0;
    benchmark::DoNotOptimize(QueryEngine::TopKOnBundle(bundle, q, &scratch).ok());
  }
  ReportQps(state);
}

void BM_TopKExplore(benchmark::State& state) {
  const LoadedBundle& bundle = Bundle();
  TopKQuery q = BlendQuery(100, 10);
  q.exploration_epsilon = state.range(0) / 100.0;
  TopKScratch scratch;
  uint64_t seed = 0;
  for (auto _ : state) {
    q.exploration_seed = seed++;
    benchmark::DoNotOptimize(QueryEngine::TopKOnBundle(bundle, q, &scratch).ok());
  }
  ReportQps(state);
}

// Concurrent readers against one shared store (google-benchmark spawns
// state.threads() workers; per-thread counters are summed, so "qps" is
// the machine total).
void BM_TopKThreads(benchmark::State& state) {
  static SnapshotStore* store = [] {
    auto* s = new SnapshotStore();
    s->Publish(LoadedBundle::FromBuffer(MakeImage(7)).value());
    return s;
  }();
  const QueryEngine engine(store);
  const TopKQuery q = BlendQuery(static_cast<int>(state.range(0)), 10);
  TopKScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.TopK(q, &scratch).ok());
  }
  ReportQps(state);
}

// One reader thread measuring per-query latency while a publisher
// churns fresh generations from a second image every ~50 us — the
// hot-swap contract under load. p50/p99 are over every query in the
// timed region.
void BM_TopKHotSwap(benchmark::State& state) {
  SnapshotStore store;
  store.Publish(LoadedBundle::FromBuffer(MakeImage(7)).value());
  const QueryEngine engine(&store);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> publishes{0};
  std::thread publisher([&] {
    // Alternate two premade generations; make_shared per publish keeps
    // the reclamation path (last unpin frees) in play.
    const std::vector<uint8_t> images[2] = {MakeImage(8), MakeImage(9)};
    int which = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      std::vector<uint8_t> copy = images[which ^= 1];
      store.Publish(LoadedBundle::FromBuffer(std::move(copy)).value());
      publishes.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });

  const TopKQuery q = BlendQuery(50, 10);
  TopKScratch scratch;
  std::vector<double> lat_ns;
  lat_ns.reserve(1 << 20);
  using Clock = std::chrono::steady_clock;
  for (auto _ : state) {
    const Clock::time_point t0 = Clock::now();
    benchmark::DoNotOptimize(engine.TopK(q, &scratch).ok());
    if (lat_ns.size() < lat_ns.capacity()) {
      lat_ns.push_back(
          std::chrono::duration<double, std::nano>(Clock::now() - t0)
              .count());
    }
  }
  stop.store(true, std::memory_order_relaxed);
  publisher.join();

  std::sort(lat_ns.begin(), lat_ns.end());
  const auto pct = [&lat_ns](double p) {
    return lat_ns.empty()
               ? 0.0
               : lat_ns[static_cast<size_t>(p * (lat_ns.size() - 1))];
  };
  ReportQps(state);
  state.counters["p50_ns"] = benchmark::Counter(pct(0.50));
  state.counters["p99_ns"] = benchmark::Counter(pct(0.99));
  state.counters["publishes"] =
      benchmark::Counter(static_cast<double>(publishes.load()));
}

void BM_Publish(benchmark::State& state) {
  SnapshotStore store;
  const auto a = std::make_shared<const LoadedBundle>(
      LoadedBundle::FromBuffer(MakeImage(8)).value());
  const auto b = std::make_shared<const LoadedBundle>(
      LoadedBundle::FromBuffer(MakeImage(9)).value());
  bool which = false;
  for (auto _ : state) {
    store.Publish((which = !which) ? a : b);
  }
  state.counters["publishes/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}

// ---- Distributed tier (--distributed) ------------------------------

/// One sharded loopback deployment of the 131k bundle: split files on
/// disk, an in-process WorkerServer per shard, one coordinator. Built
/// lazily per shard count and kept for the whole process (google-
/// benchmark re-enters each benchmark while estimating iteration
/// counts).
struct DistDeployment {
  std::vector<std::unique_ptr<qrank::WorkerServer>> workers;
  std::unique_ptr<qrank::Coordinator> coordinator;

  ~DistDeployment() {
    if (coordinator != nullptr) coordinator->Stop();
    for (auto& w : workers) w->Stop();
  }
};

qrank::Coordinator& DistCoordinator(int num_shards) {
  static auto* deployments =
      new std::map<int, std::unique_ptr<DistDeployment>>();
  auto it = deployments->find(num_shards);
  if (it != deployments->end()) return *it->second->coordinator;

  static const std::string* root = [] {
    char tmpl[] = "/tmp/qrank_bench_dist_XXXXXX";
    const char* dir = ::mkdtemp(tmpl);
    if (dir == nullptr) {
      std::fprintf(stderr, "mkdtemp failed for shard files\n");
      std::abort();
    }
    return new std::string(dir);
  }();
  const std::string dir = *root + "/shards_" + std::to_string(num_shards);
  ::mkdir(dir.c_str(), 0755);

  auto deployment = std::make_unique<DistDeployment>();
  const auto split = qrank::SplitBundleBySite(
      Bundle(), static_cast<uint32_t>(num_shards), dir);
  std::vector<qrank::ShardAddress> addresses;
  for (int s = 0; s < num_shards; ++s) {
    auto worker =
        std::make_unique<qrank::WorkerServer>(qrank::WorkerServer::Options{});
    if (!worker
             ->Init(split.value().bundle_paths[s], split.value().meta_paths[s])
             .ok() ||
        !worker->Start().ok()) {
      std::fprintf(stderr, "worker %d failed to start\n", s);
      std::abort();
    }
    qrank::ShardAddress address;
    address.primary.port = worker->port();
    addresses.push_back(address);
    deployment->workers.push_back(std::move(worker));
  }
  // Wide deadline/hedge: the bench box may be a loaded shared runner,
  // and the gate asserts ZERO degraded queries — a scheduler stall must
  // not read as a deadline miss. The hedge path gets its own coverage
  // in dist_fault_test.
  qrank::CoordinatorOptions options;
  options.query_deadline = std::chrono::milliseconds(5000);
  options.hedge_delay = std::chrono::milliseconds(2000);
  deployment->coordinator = std::make_unique<qrank::Coordinator>(
      split.value().map, std::move(addresses), options);
  if (!deployment->coordinator->Start().ok()) {
    std::fprintf(stderr, "coordinator failed to start\n");
    std::abort();
  }
  qrank::Coordinator& coord = *deployment->coordinator;
  deployments->emplace(num_shards, std::move(deployment));
  return coord;
}

void ReportLatencyPercentiles(benchmark::State& state,
                              std::vector<double>& lat_ns) {
  std::sort(lat_ns.begin(), lat_ns.end());
  const auto pct = [&lat_ns](double p) {
    return lat_ns.empty()
               ? 0.0
               : lat_ns[static_cast<size_t>(p * (lat_ns.size() - 1))];
  };
  state.counters["p50_ns"] = benchmark::Counter(pct(0.50));
  state.counters["p99_ns"] = benchmark::Counter(pct(0.99));
}

/// Deterministic global queries through the full coordinator round
/// trip: encode, fan-out over loopback sockets, worker-side engine,
/// exact merge. Latency is sampled per query (the socket RTT dominates,
/// so the sampling cost is noise).
void BM_DistTopK(benchmark::State& state) {
  qrank::Coordinator& coord =
      DistCoordinator(static_cast<int>(state.range(0)));
  const TopKQuery q = BlendQuery(50, 10);
  qrank::DistTopKResult result;
  const uint64_t degraded_before = coord.degraded_queries();
  const uint64_t hedges_before = coord.hedges_fired();
  std::vector<double> lat_ns;
  lat_ns.reserve(1 << 20);
  using Clock = std::chrono::steady_clock;
  for (auto _ : state) {
    const Clock::time_point t0 = Clock::now();
    benchmark::DoNotOptimize(coord.TopK(q, &result).ok());
    if (lat_ns.size() < lat_ns.capacity()) {
      lat_ns.push_back(
          std::chrono::duration<double, std::nano>(Clock::now() - t0)
              .count());
    }
  }
  ReportQps(state);
  ReportLatencyPercentiles(state, lat_ns);
  state.counters["degraded"] = benchmark::Counter(
      static_cast<double>(coord.degraded_queries() - degraded_before));
  state.counters["hedges"] = benchmark::Counter(
      static_cast<double>(coord.hedges_fired() - hedges_before));
}

/// Exploration on the distributed path: the coordinator replays the
/// engine's RNG loop over the merged top-k, then runs a second
/// (resolve) wave for the promoted rows — two socket round trips per
/// query instead of one.
void BM_DistTopKExplore(benchmark::State& state) {
  qrank::Coordinator& coord =
      DistCoordinator(static_cast<int>(state.range(0)));
  TopKQuery q = BlendQuery(100, 10);
  q.exploration_epsilon = 0.10;
  qrank::DistTopKResult result;
  const uint64_t degraded_before = coord.degraded_queries();
  uint64_t seed = 0;
  for (auto _ : state) {
    q.exploration_seed = seed++;
    benchmark::DoNotOptimize(coord.TopK(q, &result).ok());
  }
  ReportQps(state);
  state.counters["degraded"] = benchmark::Counter(
      static_cast<double>(coord.degraded_queries() - degraded_before));
}

void RegisterDist() {
  const auto us = [](benchmark::internal::Benchmark* b) {
    b->Unit(benchmark::kMicrosecond)->UseRealTime();
  };
  // shards:1 anchors the scaling table (pure RPC overhead vs BM_TopK);
  // 2/4/8 are the gated points.
  for (int shards : {1, 2, 4, 8}) {
    us(benchmark::RegisterBenchmark(
           ("BM_DistTopK/shards:" + std::to_string(shards)).c_str(),
           BM_DistTopK)
           ->Arg(shards));
  }
  us(benchmark::RegisterBenchmark("BM_DistTopKExplore/shards:4",
                                  BM_DistTopKExplore)
         ->Arg(4));
}

void RegisterAll() {
  const auto us = [](benchmark::internal::Benchmark* b) {
    b->Unit(benchmark::kMicrosecond)->UseRealTime();
  };
  us(benchmark::RegisterBenchmark("BM_BundlePublish", BM_BundlePublish));
  us(benchmark::RegisterBenchmark("BM_BundleWrite", BM_BundleWrite));
  us(benchmark::RegisterBenchmark("BM_BundleLoad", BM_BundleLoad));
  for (int alpha : {100, 50, 0}) {
    us(benchmark::RegisterBenchmark(
           ("BM_TopK/alpha:" + std::to_string(alpha) + "/k:10").c_str(),
           BM_TopK)
           ->Args({alpha, 10}));
  }
  us(benchmark::RegisterBenchmark("BM_TopK/alpha:50/k:100", BM_TopK)
         ->Args({50, 100}));
  for (int alpha : {100, 50}) {
    us(benchmark::RegisterBenchmark(
           ("BM_TopKSite/alpha:" + std::to_string(alpha)).c_str(),
           BM_TopKSite)
           ->Arg(alpha));
  }
  us(benchmark::RegisterBenchmark("BM_TopKExplore/eps:10", BM_TopKExplore)
         ->Arg(10));
  for (int threads : {1, 2, 4}) {
    us(benchmark::RegisterBenchmark(
           ("BM_TopKThreads/alpha:100/threads:" + std::to_string(threads))
               .c_str(),
           BM_TopKThreads)
           ->Arg(100)
           ->Threads(threads));
  }
  us(benchmark::RegisterBenchmark("BM_TopKHotSwap/alpha:50", BM_TopKHotSwap));
  us(benchmark::RegisterBenchmark("BM_Publish", BM_Publish));
}

// CI smoke gate. The dedicated-hardware numbers are >= 1M qps for the
// pure-quality path; shared CI runners get a conservative floor so the
// gate catches order-of-magnitude regressions (an accidental per-query
// allocation or scan) without flaking on machine noise.
int CheckServeRegression(const std::vector<qrank_bench::BenchRow>& rows) {
  constexpr double kMinPureQps = 2e5;
  const auto find = [&rows](const std::string& name) -> const qrank_bench::BenchRow* {
    for (const qrank_bench::BenchRow& r : rows) {
      if (r.name.rfind(name, 0) == 0) return &r;
    }
    return nullptr;
  };
  const qrank_bench::BenchRow* pure = find("BM_TopK/alpha:100/k:10");
  if (pure == nullptr || pure->Counter("qps") < kMinPureQps) {
    std::fprintf(stderr,
                 "serve gate FAILED: BM_TopK/alpha:100/k:10 %s (floor %.3g "
                 "qps)\n",
                 pure == nullptr ? "missing" : "below floor", kMinPureQps);
    return 1;
  }
  const qrank_bench::BenchRow* churn = find("BM_TopKHotSwap");
  if (churn == nullptr || churn->Counter("qps") <= 0.0 ||
      churn->Counter("publishes") <= 0.0) {
    std::fprintf(stderr,
                 "serve gate FAILED: hot-swap churn row missing or idle\n");
    return 1;
  }
  std::printf("serve gate: pure-quality %.4g qps, churn %.4g qps over %g "
              "publishes (p99 %.4g ns)\n",
              pure->Counter("qps"), churn->Counter("qps"),
              churn->Counter("publishes"), churn->Counter("p99_ns"));
  return 0;
}

// Distributed CI gate: every gated shard count must be present, clear
// a conservative QPS floor (the loopback RTT puts the tier orders of
// magnitude under the in-process engine; the floor catches a lost
// pipeline — per-query reconnects, a serialization stall — not machine
// noise), stay under a generous p99 ceiling, and answer every query
// undegraded.
int CheckDistRegression(const std::vector<qrank_bench::BenchRow>& rows) {
  constexpr double kMinDistQps = 500.0;
  constexpr double kMaxDistP99Ns = 100e6;  // 100 ms
  const auto find = [&rows](const std::string& name) -> const qrank_bench::BenchRow* {
    for (const qrank_bench::BenchRow& r : rows) {
      if (r.name.rfind(name, 0) == 0) return &r;
    }
    return nullptr;
  };
  int failures = 0;
  for (const int shards : {2, 4, 8}) {
    const std::string name = "BM_DistTopK/shards:" + std::to_string(shards);
    const qrank_bench::BenchRow* row = find(name);
    if (row == nullptr) {
      std::fprintf(stderr, "dist gate FAILED: %s missing\n", name.c_str());
      ++failures;
      continue;
    }
    int row_failures = 0;
    if (row->Counter("qps") < kMinDistQps) {
      std::fprintf(stderr, "dist gate FAILED: %s %.4g qps (floor %.3g)\n",
                   name.c_str(), row->Counter("qps"), kMinDistQps);
      ++row_failures;
    }
    if (row->Counter("p99_ns") > kMaxDistP99Ns) {
      std::fprintf(stderr, "dist gate FAILED: %s p99 %.4g ns (ceiling %.3g)\n",
                   name.c_str(), row->Counter("p99_ns"), kMaxDistP99Ns);
      ++row_failures;
    }
    if (row->Counter("degraded") != 0.0) {
      std::fprintf(stderr, "dist gate FAILED: %s %g degraded queries on an "
                           "idle loopback deployment\n",
                   name.c_str(), row->Counter("degraded"));
      ++row_failures;
    }
    if (row_failures == 0) {
      std::printf("dist gate: %s %.4g qps, p99 %.4g ns, 0 degraded\n",
                  name.c_str(), row->Counter("qps"), row->Counter("p99_ns"));
    }
    failures += row_failures;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool check_gate = false;
  bool distributed = false;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--check_serve_regression") {
      check_gate = true;
      continue;
    }
    if (std::string(argv[i]) == "--distributed") {
      distributed = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  if (distributed) {
    RegisterDist();
  } else {
    RegisterAll();
  }
  std::function<int(const std::vector<qrank_bench::BenchRow>&)> after;
  if (check_gate) after = distributed ? CheckDistRegression : CheckServeRegression;
  return qrank_bench::BenchMain(static_cast<int>(args.size()), args.data(),
                                distributed ? "serve_dist" : "serve", after);
}

// IngestService end to end: the streaming oracle (a live event stream
// must converge to the same graph AND the same PageRank as an offline
// from-scratch rebuild, within the documented drift budget), the
// no-lost-updates contract (published generations cover the accepted
// sequence range gap-free), freshness bookkeeping, and the
// concurrent-readers-during-publish stress the TSan job runs.

#include "ingest/ingest_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "audit/audit.h"
#include "common/rng.h"
#include "graph/csr_graph.h"
#include "graph/generators.h"
#include "rank/pagerank.h"
#include "serve/query_engine.h"
#include "serve/score_bundle.h"
#include "serve/snapshot_store.h"

namespace qrank {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;

// Drift budget of the streaming-vs-rebuild oracle. Both the streaming
// solve (warm-started DeltaPageRank, full-sweep stopping rule) and the
// scratch solve land within O(tolerance / (1 - damping)) of the true
// fixed point on the probability scale; the kTotalMassN export scale
// multiplies that by n. For tolerance 1e-10, damping 0.85 and the few
// hundred pages used here, 1e-6 holds with orders of magnitude to
// spare (see DESIGN.md §5f).
constexpr double kOracleDriftBudget = 1e-6;

CsrGraph SeedGraph() {
  Rng rng(2026);
  return CsrGraph::FromEdgeList(GenerateBarabasiAlbert(150, 3, &rng).value())
      .value();
}

std::set<std::pair<NodeId, NodeId>> EdgeSet(const CsrGraph& g) {
  std::set<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.OutNeighbors(u)) edges.insert({u, v});
  }
  return edges;
}

// Generation-log coverage check: batches must tile the accepted
// sequence range [1, total] with no gap and no overlap — the
// no-lost-updates contract, proven from provenance rather than trust.
void ExpectContiguousCoverage(const std::vector<IngestGenerationInfo>& log,
                              uint64_t total_accepted) {
  uint64_t next = 1;
  for (const IngestGenerationInfo& info : log) {
    if (info.num_events == 0) continue;  // initial generation: no batch
    EXPECT_EQ(info.first_sequence, next)
        << "coverage gap before generation " << info.generation;
    EXPECT_GE(info.last_sequence, info.first_sequence);
    next = info.last_sequence + 1;
  }
  EXPECT_EQ(next, total_accepted + 1)
      << "accepted events past the last published batch";
}

TEST(IngestServiceTest, CreateValidatesOptions) {
  SnapshotStore store;
  EXPECT_EQ(IngestService::Create(SeedGraph(), nullptr, {}).status().code(),
            StatusCode::kInvalidArgument);
  IngestOptions bad_window;
  bad_window.observation_window = 1;
  EXPECT_EQ(
      IngestService::Create(SeedGraph(), &store, bad_window).status().code(),
      StatusCode::kInvalidArgument);
  IngestOptions bad_queue;
  bad_queue.queue.capacity = 0;
  EXPECT_EQ(
      IngestService::Create(SeedGraph(), &store, bad_queue).status().code(),
      StatusCode::kInvalidArgument);
  IngestOptions bad_batch;
  bad_batch.batch.max_events = 0;
  EXPECT_EQ(
      IngestService::Create(SeedGraph(), &store, bad_batch).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(IngestServiceTest, StartPublishesInitialGenerationBeforeAnyEvent) {
  SnapshotStore store;
  auto service = IngestService::Create(SeedGraph(), &store, {}).value();
  ASSERT_FALSE(store.has_bundle());
  ASSERT_TRUE(service->Start().ok());
  // Queries never see an empty store once the service is up.
  EXPECT_TRUE(store.has_bundle());
  EXPECT_EQ(store.generation(), 1u);
  std::shared_ptr<const LoadedBundle> bundle = store.Acquire();
  ASSERT_NE(bundle, nullptr);
  EXPECT_EQ(bundle->quality().size(), SeedGraph().num_nodes());
  ASSERT_TRUE(service->Stop().ok());
  EXPECT_TRUE(service->status().ok());
}

TEST(IngestServiceTest, DoubleStartFailsAndStopIsIdempotent) {
  SnapshotStore store;
  auto service = IngestService::Create(SeedGraph(), &store, {}).value();
  ASSERT_TRUE(service->Start().ok());
  EXPECT_EQ(service->Start().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(service->Stop().ok());
  EXPECT_TRUE(service->Stop().ok());
}

// Regression for the started_/stopped_ lock-discipline fix: many threads
// calling Stop() concurrently with the destructor's implicit Stop must
// elect exactly ONE joiner. Before the fix, started_/stopped_ were
// unguarded, so two racing Stop() calls could both pass the
// `started_ && !stopped_` gate and double-join (or one could read a
// torn flag and skip the drain). With -fsanitize=thread this test is
// the canary; without it the double-join aborts in terminate().
TEST(IngestServiceTest, ConcurrentStopElectsOneJoinerAndDrains) {
  using std::chrono::seconds;
  for (int round = 0; round < 20; ++round) {
    SnapshotStore store;
    IngestOptions options;
    options.batch.max_events = 4;
    options.batch.max_age = milliseconds(1);
    auto created = IngestService::Create(SeedGraph(), &store, options);
    ASSERT_TRUE(created.ok());
    std::unique_ptr<IngestService> service = std::move(created).value();
    ASSERT_TRUE(service->Start().ok());
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(service->EnqueueEdgeAdd(0, 1 + (i % 3)).ok());
    }
    std::vector<std::thread> stoppers;
    std::atomic<int> ok_count{0};
    for (int t = 0; t < 4; ++t) {
      stoppers.emplace_back([&]() {
        if (service->Stop().ok()) ok_count.fetch_add(1);
      });
    }
    for (std::thread& t : stoppers) t.join();
    // Every Stop() reports the same terminal status; the backlog was
    // drained exactly once by the winning joiner.
    EXPECT_EQ(ok_count.load(), 4);
    EXPECT_TRUE(service->status().ok());
    EXPECT_EQ(service->Stats().events_processed, 8u);
    ExpectContiguousCoverage(service->GenerationLog(), 8);
    // A second explicit Stop after the race stays idempotent, and the
    // destructor's Stop (end of scope) must be a no-op.
    EXPECT_TRUE(service->Stop().ok());
  }
}

TEST(IngestServiceTest, UpdateBecomesServableAndVisibleToTopK) {
  SnapshotStore store;
  IngestOptions options;
  options.batch.max_events = 8;
  options.batch.max_age = milliseconds(5);
  auto service = IngestService::Create(SeedGraph(), &store, options).value();
  ASSERT_TRUE(service->Start().ok());
  const NodeId base_nodes = SeedGraph().num_nodes();

  // Link a brand-new page into the graph and wait for freshness.
  ASSERT_TRUE(service->EnqueueEdgeAdd(0, base_nodes + 4).ok());
  ASSERT_TRUE(service->EnqueueEdgeAdd(1, base_nodes + 4).ok());
  ASSERT_TRUE(service->EnqueueVisit(base_nodes + 4).ok());
  ASSERT_TRUE(service->WaitServable(3, seconds(30)));
  EXPECT_GE(service->servable_sequence(), 3u);

  // The published generation serves the grown page set.
  std::shared_ptr<const LoadedBundle> bundle = store.Acquire();
  ASSERT_NE(bundle, nullptr);
  EXPECT_EQ(bundle->quality().size(), base_nodes + 5);
  QueryEngine engine(&store);
  TopKScratch scratch;
  TopKQuery query;
  query.k = 5;
  ASSERT_TRUE(engine.TopK(query, &scratch).ok());
  EXPECT_EQ(scratch.results().size(), 5u);

  ASSERT_TRUE(service->Stop().ok());
  IngestStats stats = service->Stats();
  EXPECT_EQ(stats.events_processed, 3u);
  EXPECT_EQ(stats.edge_adds, 2u);
  EXPECT_EQ(stats.visits, 1u);
  EXPECT_EQ(stats.latency_count, 3u);
  EXPECT_GT(stats.latency_p99_ms, 0.0);
}

// THE oracle: run a 3000-event random stream (adds, removes — real and
// ghost —, visits, growth past the seed graph) through the live
// pipeline, then rebuild offline: sequential replay of the same stream
// into an edge set, from-scratch CSR build, from-scratch PageRank.
// Streaming must match batch exactly on structure and within the drift
// budget on scores — with every accepted event covered by a published
// generation. Parameterized over both execution modes: the stage-
// pipelined service (solve of batch N+1 overlapping export of batch N)
// must satisfy the exact same oracle as the serial inline path.
class IngestServiceOracleTest : public ::testing::TestWithParam<bool> {};

TEST_P(IngestServiceOracleTest, StreamingOracleMatchesFromScratchRebuild) {
  const CsrGraph seed = SeedGraph();
  SnapshotStore store;
  IngestOptions options;
  options.pipelined = GetParam();
  options.batch.max_events = 128;
  options.batch.max_age = milliseconds(2);
  options.observation_window = 3;
  options.keep_last_image = true;
  auto service = IngestService::Create(seed, &store, options).value();
  ASSERT_TRUE(service->Start().ok());

  // Sequential-replay reference, seeded with the base edges. `present`
  // mirrors the replay set as a vector for O(1) random victim picks.
  std::set<std::pair<NodeId, NodeId>> replay = EdgeSet(seed);
  std::vector<std::pair<NodeId, NodeId>> present(replay.begin(),
                                                 replay.end());
  Rng rng(77);
  const NodeId id_space = seed.num_nodes() + 30;  // room to grow
  constexpr int kEvents = 3000;
  for (int i = 0; i < kEvents; ++i) {
    const uint64_t roll = rng.NextUint64() % 100;
    if (roll < 45) {
      const NodeId u = static_cast<NodeId>(rng.NextUint64() % id_space);
      const NodeId v = static_cast<NodeId>(rng.NextUint64() % id_space);
      ASSERT_TRUE(service->EnqueueEdgeAdd(u, v).ok());
      if (u != v && replay.insert({u, v}).second) present.push_back({u, v});
    } else if (roll < 70 && !present.empty()) {
      const size_t pick = rng.NextUint64() % present.size();
      const auto [u, v] = present[pick];
      ASSERT_TRUE(service->EnqueueEdgeRemove(u, v).ok());
      replay.erase({u, v});
      present[pick] = present.back();
      present.pop_back();
    } else if (roll < 80) {
      // Ghost remove: very likely not present; must be a clean no-op.
      const NodeId u = static_cast<NodeId>(rng.NextUint64() % id_space);
      const NodeId v = static_cast<NodeId>(rng.NextUint64() % id_space);
      ASSERT_TRUE(service->EnqueueEdgeRemove(u, v).ok());
      if (replay.erase({u, v})) {
        present.erase(std::find(present.begin(), present.end(),
                                std::make_pair(u, v)));
      }
    } else {
      ASSERT_TRUE(
          service
              ->EnqueueVisit(static_cast<NodeId>(rng.NextUint64() % id_space))
              .ok());
    }
  }

  const uint64_t total = service->queue().Stats().enqueued;
  ASSERT_EQ(total, static_cast<uint64_t>(kEvents));
  ASSERT_TRUE(service->WaitServable(total, seconds(120)));
  ASSERT_TRUE(service->Stop().ok());
  ASSERT_TRUE(service->status().ok());

  // 1. Structure: streaming graph == sequential replay, edge for edge.
  const CsrGraph& streamed = service->CurrentGraph();
  EXPECT_GE(streamed.num_nodes(), seed.num_nodes());
  EXPECT_EQ(EdgeSet(streamed), replay);

  // 2. Scores: final published PageRank == from-scratch solve on the
  // rebuilt graph, within the drift budget.
  std::vector<std::pair<NodeId, NodeId>> final_edges(replay.begin(),
                                                     replay.end());
  std::vector<Edge> rebuild_edges;
  rebuild_edges.reserve(final_edges.size());
  for (const auto& [u, v] : final_edges) rebuild_edges.push_back({u, v});
  const CsrGraph rebuilt =
      CsrGraph::FromEdges(streamed.num_nodes(), rebuild_edges).value();
  PageRankOptions scratch_options = DefaultIngestRankOptions().base;
  const PageRankResult scratch =
      ComputePageRank(rebuilt, scratch_options).value();
  ASSERT_TRUE(scratch.converged);

  std::shared_ptr<const LoadedBundle> bundle = store.Acquire();
  ASSERT_NE(bundle, nullptr);
  ASSERT_EQ(bundle->pagerank().size(), scratch.scores.size());
  double l1 = 0.0;
  for (size_t i = 0; i < scratch.scores.size(); ++i) {
    l1 += std::fabs(bundle->pagerank()[i] - scratch.scores[i]);
  }
  EXPECT_LT(l1, kOracleDriftBudget)
      << "streaming solution drifted from the batch rebuild";

  // 3. No lost updates: generations tile [1, total] gap-free.
  ExpectContiguousCoverage(service->GenerationLog(), total);
  IngestStats stats = service->Stats();
  EXPECT_EQ(stats.servable_sequence, total);
  EXPECT_EQ(stats.events_processed, total);
  EXPECT_EQ(stats.edge_adds + stats.edge_removes + stats.visits, total);
  EXPECT_EQ(stats.latency_count, total);
  EXPECT_EQ(stats.queue.enqueued, stats.queue.dequeued);
  EXPECT_TRUE(AuditIngestQueue(stats.queue.capacity, stats.queue.depth,
                               stats.queue.enqueued, stats.queue.dequeued,
                               stats.queue.rejected)
                  .ok());

  // 4. The final published artifact is a valid bundle, bit for bit.
  const std::vector<uint8_t> image = service->LastImage();
  ASSERT_FALSE(image.empty());
  EXPECT_TRUE(AuditScoreBundle(image.data(), image.size()).ok());

  // 5. The bundle published in process (no CRC, no re-validation) is
  // the one the kept image loads as, span for span.
  Result<LoadedBundle> reloaded = LoadedBundle::FromBuffer(image);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(bundle->creator_tag(), reloaded->creator_tag());
  EXPECT_EQ(bundle->num_sites(), reloaded->num_sites());
  EXPECT_EQ(bundle->expected_mass(), reloaded->expected_mass());
  EXPECT_EQ(bundle->image_size(), reloaded->image_size());
  const auto same = [](auto a, auto b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  };
  EXPECT_TRUE(same(bundle->quality(), reloaded->quality()));
  EXPECT_TRUE(same(bundle->pagerank(), reloaded->pagerank()));
  EXPECT_TRUE(same(bundle->page_ids(), reloaded->page_ids()));
  EXPECT_TRUE(same(bundle->site_ids(), reloaded->site_ids()));
  EXPECT_TRUE(same(bundle->order_by_quality(), reloaded->order_by_quality()));
  EXPECT_TRUE(
      same(bundle->order_by_pagerank(), reloaded->order_by_pagerank()));
  EXPECT_TRUE(same(bundle->site_offsets(), reloaded->site_offsets()));
  EXPECT_TRUE(same(bundle->site_pages(), reloaded->site_pages()));
}

INSTANTIATE_TEST_SUITE_P(SerialAndPipelined, IngestServiceOracleTest,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Pipelined" : "Serial";
                         });

// Determinism through the full service: feed the identical event stream
// to a serial service and a pipelined one (with multi-threaded export
// and a multi-threaded solve) and require the FINAL published bundle
// image to be byte-identical.
// Batch boundaries may differ between runs (age-based flushes race the
// producer), so only the final drained artifact — same graph, same
// observation window — is compared.
TEST(IngestServiceTest, PipelinedFinalImageMatchesSerialByteForByte) {
  const CsrGraph seed = SeedGraph();
  auto run = [&seed](bool pipelined) {
    SnapshotStore store;
    IngestOptions options;
    options.pipelined = pipelined;
    options.export_parallel.num_threads = pipelined ? 4 : 1;
    options.rank.base.num_threads = pipelined ? 4 : 1;
    options.batch.max_events = 1 << 14;     // single Stop-drain batch:
    options.batch.max_age = seconds(3600);  // no age or quiet flush:
                                            // identical windows both runs
    options.observation_window = 3;
    options.keep_last_image = true;
    auto service = IngestService::Create(seed, &store, options).value();
    EXPECT_TRUE(service->Start().ok());
    Rng rng(4242);
    for (int i = 0; i < 600; ++i) {
      const NodeId u = static_cast<NodeId>(rng.NextUint64() % 170);
      const NodeId v = static_cast<NodeId>(rng.NextUint64() % 170);
      const uint64_t roll = rng.NextUint64() % 4;
      Status st;
      if (roll == 0) {
        st = service->EnqueueEdgeAdd(u, v);
      } else if (roll == 1) {
        st = service->EnqueueEdgeRemove(u, v);
      } else {
        st = service->EnqueueVisit(u);
      }
      EXPECT_TRUE(st.ok());
    }
    EXPECT_TRUE(service->Stop().ok());
    EXPECT_TRUE(service->status().ok());
    return service->LastImage();
  };
  const std::vector<uint8_t> serial_image = run(false);
  const std::vector<uint8_t> pipelined_image = run(true);
  ASSERT_FALSE(serial_image.empty());
  EXPECT_EQ(pipelined_image, serial_image);
}

// A 500-event burst, far under max_events, with a 10 s max_age: only
// the quiet trigger (a silence of max_age / 8 = 1.25 s) can end it
// before the age deadline, and only a consumer that sleeps until that
// deadline, rather than waiting for an age flush, publishes it within
// 2 s.
TEST(IngestServiceTest, BurstBecomesServableOnQuietFlush) {
  SnapshotStore store;
  IngestOptions options;
  options.batch.max_age = seconds(10);
  auto service = IngestService::Create(SeedGraph(), &store, options).value();
  ASSERT_TRUE(service->Start().ok());
  const auto start = std::chrono::steady_clock::now();
  Rng rng(500);
  for (int i = 0; i < 500; ++i) {
    const NodeId u = static_cast<NodeId>(rng.NextUint64() % 150);
    const NodeId v = static_cast<NodeId>(rng.NextUint64() % 150);
    ASSERT_TRUE((i % 2 == 0 ? service->EnqueueEdgeAdd(u, v)
                            : service->EnqueueVisit(u))
                    .ok());
  }
  ASSERT_TRUE(service->WaitServable(500, seconds(2)));
  EXPECT_LT(std::chrono::steady_clock::now() - start, seconds(2));
  const IngestStats stats = service->Stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.flushes_quiet, 1u);
  EXPECT_EQ(stats.flushes_full + stats.flushes_age + stats.flushes_drain, 0u);
  ASSERT_TRUE(service->Stop().ok());
}

class IngestServiceDrainTest : public ::testing::TestWithParam<bool> {};

TEST_P(IngestServiceDrainTest, ShutdownWithBacklogDrainsEverything) {
  SnapshotStore store;
  IngestOptions options;
  options.pipelined = GetParam();
  options.batch.max_events = 1 << 14;      // size flush unreachable
  options.batch.max_age = seconds(3600);   // age and quiet unreachable
  auto service = IngestService::Create(SeedGraph(), &store, options).value();
  ASSERT_TRUE(service->Start().ok());
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(service->EnqueueVisit(static_cast<NodeId>(i % 50)).ok());
  }
  // Nothing has flushed yet (policies can't fire); Stop must drain the
  // backlog through the full pipeline — consumer stage, export stage —
  // rather than drop it.
  ASSERT_TRUE(service->Stop().ok());
  IngestStats stats = service->Stats();
  EXPECT_EQ(stats.servable_sequence, 500u);
  EXPECT_EQ(stats.events_processed, 500u);
  EXPECT_EQ(stats.queue.depth, 0u);
  ExpectContiguousCoverage(service->GenerationLog(), 500);
  EXPECT_EQ(stats.flushes_drain, 1u);
  // Per-stage histograms saw every generation (initial one included, so
  // count = batches + 1) and agree with one another.
  EXPECT_GE(stats.stage_export.count, 2u);
  EXPECT_EQ(stats.stage_apply.count, stats.stage_export.count);
  EXPECT_EQ(stats.stage_solve.count, stats.stage_export.count);
  EXPECT_EQ(stats.stage_estimate.count, stats.stage_export.count);
  EXPECT_EQ(stats.stage_publish.count, stats.stage_export.count);
}

INSTANTIATE_TEST_SUITE_P(SerialAndPipelined, IngestServiceDrainTest,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Pipelined" : "Serial";
                         });

TEST(IngestServiceTest, RejectBackpressureShedsButLosesNoAcceptedEvent) {
  SnapshotStore store;
  IngestOptions options;
  options.queue.capacity = 4;
  options.queue.backpressure = BackpressurePolicy::kReject;
  options.batch.max_events = 4;
  options.batch.max_age = milliseconds(1);
  auto service = IngestService::Create(SeedGraph(), &store, options).value();
  ASSERT_TRUE(service->Start().ok());
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  for (int i = 0; i < 400; ++i) {
    const Status st = service->EnqueueVisit(static_cast<NodeId>(i % 10));
    if (st.ok()) {
      ++accepted;
    } else {
      ASSERT_EQ(st.code(), StatusCode::kOutOfRange);
      ++rejected;
    }
  }
  ASSERT_GT(accepted, 0u);
  ASSERT_TRUE(service->WaitServable(accepted, seconds(60)));
  ASSERT_TRUE(service->Stop().ok());
  IngestStats stats = service->Stats();
  EXPECT_EQ(stats.queue.rejected, rejected);
  EXPECT_EQ(stats.events_processed, accepted);
  ExpectContiguousCoverage(service->GenerationLog(), accepted);
}

// The TSan stress: two producers mutate the graph while two readers
// hammer TopK through the hot-swap store across many publishes. The
// assertions are light — the point is the interleaving itself (RCU pin
// vs publish vs queue backpressure) under the race detector.
TEST(IngestServiceTest, ConcurrentReadersDuringContinuousPublishes) {
  const CsrGraph seed = SeedGraph();
  SnapshotStore store;
  IngestOptions options;
  options.batch.max_events = 64;
  options.batch.max_age = milliseconds(1);
  options.queue.capacity = 512;
  auto service = IngestService::Create(seed, &store, options).value();
  ASSERT_TRUE(service->Start().ok());

  constexpr int kPerProducer = 2000;
  std::atomic<bool> done{false};
  std::vector<std::thread> producers;
  for (int p = 0; p < 2; ++p) {
    producers.emplace_back([&service, p] {
      Rng rng(1000 + p);
      for (int i = 0; i < kPerProducer; ++i) {
        const NodeId u = static_cast<NodeId>(rng.NextUint64() % 160);
        const NodeId v = static_cast<NodeId>(rng.NextUint64() % 160);
        const uint64_t roll = rng.NextUint64() % 3;
        Status st;
        if (roll == 0) {
          st = service->EnqueueEdgeAdd(u, v);
        } else if (roll == 1) {
          st = service->EnqueueEdgeRemove(u, v);
        } else {
          st = service->EnqueueVisit(u);
        }
        ASSERT_TRUE(st.ok());
      }
    });
  }
  QueryEngine engine(&store);
  std::vector<std::thread> readers;
  std::atomic<uint64_t> queries{0};
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      TopKScratch scratch;
      TopKQuery query;
      query.k = 10;
      while (!done.load(std::memory_order_acquire)) {
        ASSERT_TRUE(engine.TopK(query, &scratch).ok());
        ASSERT_GT(scratch.results().size(), 0u);
        queries.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : producers) t.join();
  ASSERT_TRUE(service->WaitServable(2 * kPerProducer, seconds(120)));
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  ASSERT_TRUE(service->Stop().ok());
  ASSERT_TRUE(service->status().ok());
  EXPECT_GT(queries.load(), 0u);
  EXPECT_GT(service->Stats().generations, 1u);
  ExpectContiguousCoverage(service->GenerationLog(), 2 * kPerProducer);
}

}  // namespace
}  // namespace qrank

// Steady-state allocation behavior of the distributed query path.
//
// The coordinator's contract mirrors QueryEngine::TopK's: once its
// per-query scratch, the channel receive buffers, and the workers'
// thread-local scratches have warmed up to the deployment's k, a
// steady stream of identical-shape queries allocates NOTHING — on
// either side of the sockets. The global counting allocator sees every
// thread in this process, so the assertion covers the coordinator's
// encode/fan-out/merge/exploration path AND the in-process workers'
// decode/query/translate/encode path at once.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "counting_new.h"
#include "dist/coordinator.h"
#include "dist/shard_map.h"
#include "dist/worker.h"
#include "serve/query_engine.h"
#include "serve/score_bundle.h"
#include "shard_dir.h"

namespace qrank {
namespace {

constexpr NodeId kPages = 2000;
constexpr SiteId kSites = 32;
constexpr uint32_t kShards = 3;

TEST(DistAllocTest, SteadyStateQueriesAllocationFreeAfterWarmup) {
  Rng rng(29);
  ScoreBundleSource src;
  src.quality.resize(kPages);
  src.pagerank.resize(kPages);
  src.site_ids.resize(kPages);
  for (NodeId i = 0; i < kPages; ++i) {
    src.quality[i] = rng.Pareto(1.0, 1.2);
    src.pagerank[i] = rng.Pareto(1.0, 1.2);
    src.site_ids[i] = static_cast<SiteId>(rng.UniformUint64(kSites));
  }
  src.num_sites = kSites;
  const LoadedBundle bundle =
      LoadedBundle::FromBuffer(
          ScoreBundleWriter::Create(std::move(src)).value().Serialize())
          .value();

  const ShardDir dir("alloc_shards");
  const Result<ShardSplit> split =
      SplitBundleBySite(bundle, kShards, dir.path());
  ASSERT_TRUE(split.ok()) << split.status().ToString();

  std::vector<std::unique_ptr<WorkerServer>> workers;
  std::vector<ShardAddress> addresses(kShards);
  for (uint32_t s = 0; s < kShards; ++s) {
    auto worker = std::make_unique<WorkerServer>(WorkerServer::Options{});
    ASSERT_TRUE(worker
                    ->Init(split.value().bundle_paths[s],
                           split.value().meta_paths[s])
                    .ok());
    ASSERT_TRUE(worker->Start().ok());
    addresses[s].primary.port = worker->port();
    workers.push_back(std::move(worker));
  }
  // Hedging disabled (hedge_delay >= deadline): a hedge fired by a
  // scheduler hiccup would lazily connect its channel, which allocates
  // and has nothing to do with the steady-state contract under test.
  CoordinatorOptions options;
  options.query_deadline = std::chrono::seconds(30);
  options.hedge_delay = std::chrono::seconds(30);
  Coordinator coord(split.value().map, addresses, options);
  ASSERT_TRUE(coord.Start().ok());

  TopKQuery query;
  query.k = 20;
  query.blend_alpha = 0.5;
  DistTopKResult result;

  // Warm-up: connections, frame buffers, scratch growth, thread-local
  // worker state — queries of every shape this test later measures.
  for (int i = 0; i < 30; ++i) {
    query.exploration_seed = static_cast<uint64_t>(i);
    for (const double eps : {0.0, 0.4}) {
      query.exploration_epsilon = eps;
      ASSERT_TRUE(coord.TopK(query, &result).ok());
      ASSERT_FALSE(result.degraded);
    }
  }

  // Each answered wave swaps the channel's receive buffer with
  // shard_frames[s], so a shard's two buffers alternate; a few
  // same-shape queries are needed before both have held that shape's
  // largest frame; only then is the swap capacity-stable.
  query.exploration_epsilon = 0.0;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(coord.TopK(query, &result).ok());
  }

  // Steady state: the full distributed round trip — encode, fan-out,
  // worker decode + engine + translate + encode, coordinator merge —
  // must not allocate on either side.
  const size_t deterministic = AllocationsDuring([&] {
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(coord.TopK(query, &result).ok());
      ASSERT_FALSE(result.degraded);
    }
  });
  EXPECT_EQ(deterministic, 0u)
      << "deterministic distributed TopK allocated in steady state";

  // Exploration adds the RNG replay and the resolve wave; both reuse
  // per-query scratch and must also be allocation-free once warm.
  query.exploration_epsilon = 0.4;
  for (int i = 0; i < 6; ++i) {
    query.exploration_seed = static_cast<uint64_t>(i);
    ASSERT_TRUE(coord.TopK(query, &result).ok());
  }
  const size_t exploring = AllocationsDuring([&] {
    for (int i = 0; i < 50; ++i) {
      query.exploration_seed = static_cast<uint64_t>(i % 30);
      ASSERT_TRUE(coord.TopK(query, &result).ok());
      ASSERT_FALSE(result.degraded);
    }
  });
  EXPECT_EQ(exploring, 0u)
      << "exploring distributed TopK allocated in steady state";

  coord.Stop();
  for (auto& w : workers) w->Stop();
}

}  // namespace
}  // namespace qrank

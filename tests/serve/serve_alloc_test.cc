// Steady-state allocation behavior of the serving hot path.
//
// QueryEngine::TopK's contract is zero heap allocations per query once
// the caller's TopKScratch has warmed up to the bundle's size: the
// bounded heap, the result slots, and the epoch-stamped dedup array are
// all reused, and the store-backed path revalidates a cached pin with
// one atomic generation load, never allocating. The
// test instruments the global allocator (tests/common/counting_new.h)
// and proves long query sequences — every blend mode, site filters,
// exploration, and store-backed acquires — allocate nothing.

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "counting_new.h"
#include "serve/query_engine.h"
#include "serve/score_bundle.h"
#include "serve/snapshot_store.h"

namespace qrank {
namespace {

constexpr NodeId kPages = 4096;
constexpr SiteId kSites = 16;

const LoadedBundle& Bundle() {
  static const LoadedBundle b = [] {
    Rng rng(11);
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
    return LoadedBundle::FromBuffer(
               ScoreBundleWriter::Create(std::move(src)).value().Serialize())
        .value();
  }();
  return b;
}

TEST(ServeAllocTest, TopKOnBundleAllocationFreeAfterWarmup) {
  const LoadedBundle& b = Bundle();
  TopKScratch scratch;
  TopKQuery warm;
  warm.k = 64;  // largest k any query below uses
  ASSERT_TRUE(QueryEngine::TopKOnBundle(b, warm, &scratch).ok());

  const size_t allocs = AllocationsDuring([&b, &scratch] {
    TopKQuery q;
    for (int i = 0; i < 2000; ++i) {
      q.k = 1 + static_cast<uint32_t>(i % 64);
      q.blend_alpha = (i % 3) * 0.5;            // 0, 0.5, 1
      q.site = (i % 5 == 0) ? static_cast<SiteId>(i % kSites) : kAllSites;
      q.exploration_epsilon = (i % 7 == 0) ? 0.3 : 0.0;
      q.exploration_seed = static_cast<uint64_t>(i);
      ASSERT_TRUE(QueryEngine::TopKOnBundle(b, q, &scratch).ok());
      ASSERT_FALSE(scratch.results().empty());
    }
  });
  EXPECT_EQ(allocs, 0u);
}

TEST(ServeAllocTest, StoreBackedTopKAllocationFreeAfterWarmup) {
  SnapshotStore store;
  {
    Rng rng(12);
    ScoreBundleSource src;
    src.quality.resize(kPages);
    src.pagerank.resize(kPages);
    for (NodeId i = 0; i < kPages; ++i) {
      src.quality[i] = rng.UniformDouble(0.0, 5.0);
      src.pagerank[i] = rng.UniformDouble(0.0, 5.0);
    }
    store.Publish(
        LoadedBundle::FromBuffer(
            ScoreBundleWriter::Create(std::move(src)).value().Serialize())
            .value());
  }
  const QueryEngine engine(&store);
  TopKScratch scratch;
  TopKQuery q;
  q.k = 10;
  q.blend_alpha = 0.5;
  ASSERT_TRUE(engine.TopK(q, &scratch).ok());  // warm-up

  // The scratch's cached pin is revalidated by one atomic generation
  // load — no allocation per query even through the store.
  const size_t allocs = AllocationsDuring([&engine, &scratch, &q] {
    for (int i = 0; i < 2000; ++i) {
      ASSERT_TRUE(engine.TopK(q, &scratch).ok());
    }
  });
  EXPECT_EQ(allocs, 0u);
}

TEST(ServeAllocTest, ScratchGrowthIsAmortizedOnce) {
  const LoadedBundle& b = Bundle();
  TopKScratch scratch;
  TopKQuery q;
  q.k = 32;
  // First query on a fresh scratch allocates (heap, results, stamps)...
  const size_t first = AllocationsDuring([&b, &scratch, &q] {
    ASSERT_TRUE(QueryEngine::TopKOnBundle(b, q, &scratch).ok());
  });
  EXPECT_GT(first, 0u);
  // ...and never again at the same or smaller shape.
  const size_t rest = AllocationsDuring([&b, &scratch, &q] {
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(QueryEngine::TopKOnBundle(b, q, &scratch).ok());
    }
  });
  EXPECT_EQ(rest, 0u);
}

}  // namespace
}  // namespace qrank

// Distributed-vs-single-process oracle: a coordinator fanning out to
// real WorkerServer processes-in-threads over loopback sockets must
// return results element-for-element identical (rows, page ids,
// bitwise scores, promotion flags) to QueryEngine::TopK on the
// unsharded bundle — across 2/4/8 shards, every blend alpha, site
// filters, and seeded exploration (both the site-query path, where the
// owning worker explores, and the global path, where the coordinator
// replays the engine's RNG stream and resolves promoted rows over the
// wire).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "dist/coordinator.h"
#include "dist/shard_map.h"
#include "dist/worker.h"
#include "serve/query_engine.h"
#include "serve/score_bundle.h"
#include "shard_dir.h"

namespace qrank {
namespace {

constexpr NodeId kPages = 1200;
constexpr SiteId kSites = 57;

const LoadedBundle& Bundle() {
  static const LoadedBundle b = [] {
    Rng rng(19);
    ScoreBundleSource src;
    src.quality.resize(kPages);
    src.pagerank.resize(kPages);
    src.site_ids.resize(kPages);
    for (NodeId i = 0; i < kPages; ++i) {
      // A mix of smooth and tie-heavy scores so both the threshold
      // algorithm's common regime and its tie-break paths are on.
      src.quality[i] = (i % 3 == 0)
                           ? static_cast<double>(rng.UniformUint64(8))
                           : rng.Pareto(1.0, 1.2);
      src.pagerank[i] = rng.Pareto(1.0, 1.3);
      src.site_ids[i] = static_cast<SiteId>(rng.UniformUint64(kSites));
    }
    src.num_sites = kSites;
    return LoadedBundle::FromBuffer(
               ScoreBundleWriter::Create(std::move(src)).value().Serialize())
        .value();
  }();
  return b;
}

/// A full sharded deployment on loopback: split files in a temp dir,
/// one WorkerServer per shard, one coordinator.
class Deployment {
 public:
  explicit Deployment(uint32_t num_shards)
      : dir_("oracle_shards_" + std::to_string(num_shards)) {
    Result<ShardSplit> split =
        SplitBundleBySite(Bundle(), num_shards, dir_.path());
    QRANK_CHECK(split.ok()) << split.status().ToString();
    std::vector<ShardAddress> addresses;
    for (uint32_t s = 0; s < num_shards; ++s) {
      auto worker = std::make_unique<WorkerServer>(WorkerServer::Options{});
      QRANK_CHECK(worker
                      ->Init(split.value().bundle_paths[s],
                             split.value().meta_paths[s])
                      .ok());
      QRANK_CHECK(worker->Start().ok());
      ShardAddress address;
      address.primary.port = worker->port();
      addresses.push_back(address);
      workers_.push_back(std::move(worker));
    }
    coordinator_ = std::make_unique<Coordinator>(
        std::move(split.value().map), std::move(addresses),
        CoordinatorOptions{});
    QRANK_CHECK(coordinator_->Start().ok());
  }

  ~Deployment() {
    coordinator_->Stop();
    for (auto& w : workers_) w->Stop();
  }

  Coordinator& coordinator() { return *coordinator_; }

 private:
  ShardDir dir_;  // outlives the workers that mmap its files
  std::vector<std::unique_ptr<WorkerServer>> workers_;
  std::unique_ptr<Coordinator> coordinator_;
};

void ExpectMatchesOracle(Coordinator& coord, const TopKQuery& query) {
  TopKScratch scratch;
  ASSERT_TRUE(QueryEngine::TopKOnBundle(Bundle(), query, &scratch).ok());
  DistTopKResult dist;
  const Status st = coord.TopK(query, &dist);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_FALSE(dist.degraded);
  const std::span<const TopKEntry> want = scratch.results();
  ASSERT_EQ(dist.entries.size(), want.size())
      << "k=" << query.k << " site=" << query.site
      << " alpha=" << query.blend_alpha;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(dist.entries[i].row, want[i].row) << "rank " << i;
    EXPECT_EQ(dist.entries[i].page_id, want[i].page_id) << "rank " << i;
    // Bitwise score equality: both sides evaluate the same blend
    // expression on the same doubles (see coordinator.h).
    EXPECT_EQ(dist.entries[i].score, want[i].score) << "rank " << i;
    EXPECT_EQ(dist.entries[i].promoted, want[i].promoted) << "rank " << i;
  }
}

class DistOracleTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(DistOracleTest, DeterministicGlobalQueriesMatch) {
  Deployment deployment(GetParam());
  for (const uint32_t k : {1u, 10u, 100u}) {
    for (const double alpha : {1.0, 0.0, 0.5, 0.75}) {
      TopKQuery query;
      query.k = k;
      query.blend_alpha = alpha;
      ExpectMatchesOracle(deployment.coordinator(), query);
    }
  }
}

TEST_P(DistOracleTest, SiteFilteredQueriesMatch) {
  Deployment deployment(GetParam());
  // Sites spanning every shard, including boundary sites.
  for (const SiteId site : {SiteId{0}, SiteId{1}, SiteId{kSites / 2},
                            SiteId{kSites - 1}}) {
    for (const uint32_t k : {1u, 5u, 200u}) {  // 200 > any site's pages
      TopKQuery query;
      query.k = k;
      query.site = site;
      query.blend_alpha = 0.5;
      ExpectMatchesOracle(deployment.coordinator(), query);
    }
  }
}

TEST_P(DistOracleTest, SiteExplorationMatchesEngineExactly) {
  Deployment deployment(GetParam());
  // Site queries ship epsilon/seed to the owning worker, whose engine
  // runs the same exploration loop the oracle does.
  for (const SiteId site : {SiteId{2}, SiteId{kSites - 2}}) {
    for (const uint64_t seed : {1ull, 99ull, 4096ull}) {
      TopKQuery query;
      query.k = 8;
      query.site = site;
      query.exploration_epsilon = 0.5;
      query.exploration_seed = seed;
      ExpectMatchesOracle(deployment.coordinator(), query);
    }
  }
}

TEST_P(DistOracleTest, GlobalExplorationReplayMatchesEngineExactly) {
  Deployment deployment(GetParam());
  // Global exploration goes through the coordinator's replay + resolve
  // wave; high epsilon makes nearly every slot a promotion.
  for (const double eps : {0.1, 0.5, 0.95}) {
    for (const uint64_t seed : {7ull, 31337ull, 0ull}) {
      TopKQuery query;
      query.k = 16;
      query.blend_alpha = 0.25;
      query.exploration_epsilon = eps;
      query.exploration_seed = seed;
      ExpectMatchesOracle(deployment.coordinator(), query);
    }
  }
}

TEST_P(DistOracleTest, RepeatedQueriesStayExactAndCountStats) {
  Deployment deployment(GetParam());
  TopKQuery query;
  query.k = 12;
  query.blend_alpha = 0.5;
  for (int i = 0; i < 25; ++i) {
    query.exploration_epsilon = (i % 2 == 0) ? 0.0 : 0.3;
    query.exploration_seed = static_cast<uint64_t>(i);
    ExpectMatchesOracle(deployment.coordinator(), query);
  }
  EXPECT_EQ(deployment.coordinator().degraded_queries(), 0u);
  EXPECT_GE(deployment.coordinator().queries(), 25u);
}

INSTANTIATE_TEST_SUITE_P(Shards, DistOracleTest,
                         ::testing::Values(2u, 4u, 8u),
                         [](const ::testing::TestParamInfo<uint32_t>& info) {
                           return std::to_string(info.param) + "shards";
                         });

TEST(DistOracleSingleShardTest, OneShardDeploymentMatches) {
  Deployment deployment(1);
  TopKQuery query;
  query.k = 20;
  query.blend_alpha = 0.5;
  ExpectMatchesOracle(deployment.coordinator(), query);
  query.site = 3;
  ExpectMatchesOracle(deployment.coordinator(), query);
}

TEST(DistValidationTest, CoordinatorRejectsInvalidQueries) {
  Deployment deployment(2);
  DistTopKResult result;
  TopKQuery query;
  query.k = kMaxWireTopK + 1;
  EXPECT_FALSE(deployment.coordinator().TopK(query, &result).ok());
  query.k = 10;
  query.blend_alpha = 1.5;
  EXPECT_FALSE(deployment.coordinator().TopK(query, &result).ok());
  query.blend_alpha = 1.0;
  query.site = kSites;  // out of range, not the kAllSites sentinel
  EXPECT_FALSE(deployment.coordinator().TopK(query, &result).ok());
  query.site = kAllSites;
  query.exploration_epsilon = 2.0;
  EXPECT_FALSE(deployment.coordinator().TopK(query, &result).ok());
}

}  // namespace
}  // namespace qrank

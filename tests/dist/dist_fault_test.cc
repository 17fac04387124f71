// Failure behavior of the distributed tier: a worker killed mid-stream
// degrades the query (partial results, degraded flag) within the
// deadline instead of hanging; a worker that rejoins on the same port
// brings the deployment back to exact answers; hedged requests rescue
// a slow primary, or one stalled mid-frame, through its replica
// without degrading. Runs entirely
// on loopback with real sockets and threads — this suite is also the
// TSan workload for the RPC/coordinator locking (ROADMAP: tsan CI
// job).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "dist/coordinator.h"
#include "dist/rpc.h"
#include "dist/shard_map.h"
#include "dist/wire_format.h"
#include "dist/worker.h"
#include "serve/query_engine.h"
#include "serve/score_bundle.h"
#include "shard_dir.h"

namespace qrank {
namespace {

using std::chrono::milliseconds;
using Clock = std::chrono::steady_clock;

constexpr NodeId kPages = 600;
constexpr SiteId kSites = 24;

const LoadedBundle& Bundle() {
  static const LoadedBundle b = [] {
    Rng rng(23);
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

const ShardSplit& Split() {
  static const ShardDir dir("fault_shards");
  static const ShardSplit split = [] {
    Result<ShardSplit> s = SplitBundleBySite(Bundle(), 2, dir.path());
    QRANK_CHECK(s.ok()) << s.status().ToString();
    return std::move(s).value();
  }();
  return split;
}

std::unique_ptr<WorkerServer> StartWorker(uint32_t shard, uint16_t port,
                                          milliseconds delay) {
  WorkerServer::Options options;
  options.port = port;
  options.test_response_delay = delay;
  auto worker = std::make_unique<WorkerServer>(options);
  QRANK_CHECK(
      worker->Init(Split().bundle_paths[shard], Split().meta_paths[shard])
          .ok());
  QRANK_CHECK(worker->Start().ok());
  return worker;
}

/// A shard endpoint that is a raw listening socket, not a WorkerServer:
/// every connection it accepts has its request read, gets the first 8
/// bytes of a valid response header, and then stalls, held open until
/// the peer is destroyed.
class StalledPeer {
 public:
  StalledPeer() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    QRANK_CHECK(listen_fd_ >= 0);
    struct sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof addr;
    QRANK_CHECK(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                       sizeof addr) == 0);
    QRANK_CHECK(::listen(listen_fd_, 8) == 0);
    QRANK_CHECK(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                              &len) == 0);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { Serve(); });
  }

  ~StalledPeer() {
    ::shutdown(listen_fd_, SHUT_RDWR);  // fails the blocked accept
    thread_.join();
    ::close(listen_fd_);
  }

  uint16_t port() const { return port_; }

 private:
  void Serve() {
    std::vector<uint8_t> header_prefix;
    EncodeTopKResponse(WireTopKResponse{}, &header_prefix);
    header_prefix.resize(8);
    std::vector<Socket> stalled;
    std::vector<uint8_t> request;
    for (;;) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      Socket sock(fd);
      const RpcDeadline deadline = Clock::now() + std::chrono::seconds(5);
      if (!RecvFrame(sock, &request, deadline).ok() ||
          !sock.SendAll(header_prefix.data(), header_prefix.size(), deadline)
               .ok()) {
        continue;  // the client already gave up; nothing to stall
      }
      stalled.push_back(std::move(sock));
    }
  }

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
};

TopKQuery GlobalQuery() {
  TopKQuery query;
  query.k = 10;
  query.blend_alpha = 0.5;
  return query;
}

std::vector<TopKEntry> Oracle(const TopKQuery& query) {
  TopKScratch scratch;
  QRANK_CHECK(QueryEngine::TopKOnBundle(Bundle(), query, &scratch).ok());
  return {scratch.results().begin(), scratch.results().end()};
}

TEST(DistFaultTest, DeadWorkerDegradesWithinDeadlineAndRejoins) {
  auto w0 = StartWorker(0, 0, milliseconds(0));
  auto w1 = StartWorker(1, 0, milliseconds(0));
  const uint16_t port1 = w1->port();

  CoordinatorOptions options;
  options.query_deadline = milliseconds(400);
  options.hedge_delay = milliseconds(50);
  std::vector<ShardAddress> addresses(2);
  addresses[0].primary.port = w0->port();
  addresses[1].primary.port = port1;
  Coordinator coord(LoadShardMap(Split().map_path).value(), addresses,
                    options);
  ASSERT_TRUE(coord.Start().ok());

  DistTopKResult result;
  ASSERT_TRUE(coord.TopK(GlobalQuery(), &result).ok());
  EXPECT_FALSE(result.degraded);
  const std::vector<TopKEntry> want = Oracle(GlobalQuery());
  ASSERT_EQ(result.entries.size(), want.size());

  // Kill shard 1 and query again: the shard's channels fail fast
  // (connection refused), so the partial answer must come back well
  // inside the deadline with shard 0's rows only, ranked exactly.
  w1->Stop();
  const Clock::time_point t0 = Clock::now();
  ASSERT_TRUE(coord.TopK(GlobalQuery(), &result).ok());
  const auto elapsed = Clock::now() - t0;
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(result.shards_asked, 2u);
  EXPECT_EQ(result.shards_answered, 1u);
  EXPECT_LT(elapsed, options.query_deadline + milliseconds(200))
      << "degraded answer must not overshoot the deadline";
  std::vector<TopKEntry> shard0_only;
  const ShardMap map = LoadShardMap(Split().map_path).value();
  for (const TopKEntry& e : want) {
    if (map.ShardForSite(Bundle().site_ids()[e.row]) == 0) {
      shard0_only.push_back(e);
    }
  }
  // The surviving shard's rows come back in exact oracle order; the
  // partial list is a prefix-merge of one shard so it has exactly the
  // oracle entries owned by shard 0 that fit in k... which is every
  // oracle-shard0 row plus possibly deeper shard-0 rows. The first
  // |shard0_only| of them must match.
  ASSERT_GE(result.entries.size(), shard0_only.size());
  for (size_t i = 0; i < shard0_only.size(); ++i) {
    EXPECT_EQ(result.entries[i].row, shard0_only[i].row);
    EXPECT_EQ(result.entries[i].score, shard0_only[i].score);
  }
  EXPECT_GE(coord.degraded_queries(), 1u);

  // Same-port rejoin: a fresh WorkerServer takes shard 1's address and
  // the coordinator's next query reconnects and is exact again.
  w1 = StartWorker(1, port1, milliseconds(0));
  ASSERT_TRUE(coord.TopK(GlobalQuery(), &result).ok());
  EXPECT_FALSE(result.degraded) << "coordinator must recover after rejoin";
  ASSERT_EQ(result.entries.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(result.entries[i].row, want[i].row);
    EXPECT_EQ(result.entries[i].score, want[i].score);
  }

  coord.Stop();
}

TEST(DistFaultTest, FastFailingShardSettlesEarlyWithHedgingDisabled) {
  // With hedging disabled (hedge_delay >= query_deadline) a shard
  // whose primary fails fast (connection refused) can never answer;
  // the coordinator must settle it on the failure instead of waiting
  // out the whole query deadline.
  auto w0 = StartWorker(0, 0, milliseconds(0));
  auto w1 = StartWorker(1, 0, milliseconds(0));
  const uint16_t dead_port = w1->port();
  w1->Stop();  // nobody listens here now: loopback connects are refused

  CoordinatorOptions options;
  options.query_deadline = milliseconds(3000);
  options.hedge_delay = milliseconds(3000);  // >= deadline: no hedging
  std::vector<ShardAddress> addresses(2);
  addresses[0].primary.port = w0->port();
  addresses[1].primary.port = dead_port;
  Coordinator coord(LoadShardMap(Split().map_path).value(), addresses,
                    options);
  ASSERT_TRUE(coord.Start().ok());

  DistTopKResult result;
  const Clock::time_point t0 = Clock::now();
  ASSERT_TRUE(coord.TopK(GlobalQuery(), &result).ok());
  const auto elapsed = Clock::now() - t0;
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(result.shards_answered, 1u);
  EXPECT_EQ(result.hedges_fired, 0u);
  EXPECT_LT(elapsed, milliseconds(1000))
      << "a refused connection must settle the shard, not stall the "
         "wave until the deadline";
  coord.Stop();
}

TEST(DistFaultTest, SiteQueryOnDeadShardDegradesToEmpty) {
  auto w0 = StartWorker(0, 0, milliseconds(0));
  auto w1 = StartWorker(1, 0, milliseconds(0));
  CoordinatorOptions options;
  options.query_deadline = milliseconds(300);
  std::vector<ShardAddress> addresses(2);
  addresses[0].primary.port = w0->port();
  addresses[1].primary.port = w1->port();
  const ShardMap map = LoadShardMap(Split().map_path).value();
  Coordinator coord(map, addresses, options);
  ASSERT_TRUE(coord.Start().ok());

  // A site owned by shard 1, which is about to die.
  const SiteId site = map.site_boundaries[1];
  ASSERT_EQ(map.ShardForSite(site), 1u);
  w1->Stop();
  TopKQuery query = GlobalQuery();
  query.site = site;
  DistTopKResult result;
  ASSERT_TRUE(coord.TopK(query, &result).ok());
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(result.shards_asked, 1u);
  EXPECT_EQ(result.shards_answered, 0u);
  EXPECT_TRUE(result.entries.empty());

  // Shard 0 sites are untouched by shard 1's death.
  query.site = 0;
  ASSERT_TRUE(coord.TopK(query, &result).ok());
  EXPECT_FALSE(result.degraded);
  coord.Stop();
}

TEST(DistFaultTest, HedgeToReplicaRescuesSlowPrimaryWithoutDegrading) {
  // Primary for shard 1 answers after 2s (past the deadline); its
  // replica is fast. With hedging at 40ms the query must come back
  // exact, well before the slow primary would have answered, and
  // report the fired hedge.
  auto w0 = StartWorker(0, 0, milliseconds(0));
  auto slow1 = StartWorker(1, 0, milliseconds(2000));
  auto fast1 = StartWorker(1, 0, milliseconds(0));

  CoordinatorOptions options;
  options.query_deadline = milliseconds(1000);
  options.hedge_delay = milliseconds(40);
  std::vector<ShardAddress> addresses(2);
  addresses[0].primary.port = w0->port();
  addresses[1].primary.port = slow1->port();
  addresses[1].has_replica = true;
  addresses[1].replica.port = fast1->port();
  Coordinator coord(LoadShardMap(Split().map_path).value(), addresses,
                    options);
  ASSERT_TRUE(coord.Start().ok());

  DistTopKResult result;
  const Clock::time_point t0 = Clock::now();
  ASSERT_TRUE(coord.TopK(GlobalQuery(), &result).ok());
  const auto elapsed = Clock::now() - t0;
  EXPECT_FALSE(result.degraded);
  EXPECT_GE(result.hedges_fired, 1u);
  EXPECT_LT(elapsed, milliseconds(900))
      << "hedge must beat the slow primary, not wait it out";
  const std::vector<TopKEntry> want = Oracle(GlobalQuery());
  ASSERT_EQ(result.entries.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(result.entries[i].row, want[i].row);
    EXPECT_EQ(result.entries[i].score, want[i].score);
  }
  EXPECT_GE(coord.hedges_fired(), 1u);
  coord.Stop();
}

TEST(DistFaultTest, HedgeRescuesShardWhosePrimaryStallsMidFrame) {
  // Shard 1's primary sends 8 bytes of a response header and stalls,
  // so its socket turns readable almost at once. A transport that
  // reads a readable socket to the end of the frame would sit in that
  // read until the deadline and starve the hedge; the incremental
  // reader must leave the stalled socket and let the replica answer.
  auto w0 = StartWorker(0, 0, milliseconds(0));
  StalledPeer stalled1;
  auto fast1 = StartWorker(1, 0, milliseconds(0));

  CoordinatorOptions options;
  options.query_deadline = milliseconds(1000);
  options.hedge_delay = milliseconds(40);
  std::vector<ShardAddress> addresses(2);
  addresses[0].primary.port = w0->port();
  addresses[1].primary.port = stalled1.port();
  addresses[1].has_replica = true;
  addresses[1].replica.port = fast1->port();
  Coordinator coord(LoadShardMap(Split().map_path).value(), addresses,
                    options);
  ASSERT_TRUE(coord.Start().ok());

  DistTopKResult result;
  const Clock::time_point t0 = Clock::now();
  ASSERT_TRUE(coord.TopK(GlobalQuery(), &result).ok());
  const auto elapsed = Clock::now() - t0;
  EXPECT_FALSE(result.degraded);
  EXPECT_EQ(result.hedges_fired, 1u);
  EXPECT_LT(elapsed, milliseconds(500))
      << "a peer stalled mid-frame must not hold the wave or the hedge";
  const std::vector<TopKEntry> want = Oracle(GlobalQuery());
  ASSERT_EQ(result.entries.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(result.entries[i].row, want[i].row);
    EXPECT_EQ(result.entries[i].score, want[i].score);
  }
  coord.Stop();
}

TEST(DistFaultTest, PrimaryStalledMidFrameDegradesAtDeadline) {
  // No replica: the hedge opens a second connection to the same
  // stalled peer, which stalls too. The query degrades at the
  // deadline, and the half-read frames are closed with their sockets
  // instead of leaking into the next query.
  auto w0 = StartWorker(0, 0, milliseconds(0));
  StalledPeer stalled1;

  CoordinatorOptions options;
  options.query_deadline = milliseconds(300);
  options.hedge_delay = milliseconds(40);
  std::vector<ShardAddress> addresses(2);
  addresses[0].primary.port = w0->port();
  addresses[1].primary.port = stalled1.port();
  Coordinator coord(LoadShardMap(Split().map_path).value(), addresses,
                    options);
  ASSERT_TRUE(coord.Start().ok());

  DistTopKResult result;
  for (int round = 0; round < 2; ++round) {
    const Clock::time_point t0 = Clock::now();
    ASSERT_TRUE(coord.TopK(GlobalQuery(), &result).ok());
    const auto elapsed = Clock::now() - t0;
    EXPECT_TRUE(result.degraded);
    EXPECT_EQ(result.shards_answered, 1u);
    EXPECT_EQ(result.hedges_fired, 1u);
    EXPECT_GE(elapsed, options.query_deadline - milliseconds(5));
    EXPECT_LT(elapsed, options.query_deadline + milliseconds(200));
  }
  coord.Stop();
}

TEST(DistFaultTest, SlowShardPastDeadlineDegradesOnTime) {
  // No replica: shard 1 simply cannot answer inside the deadline. The
  // coordinator must cancel it and return shard 0's partial results
  // around the deadline mark, then the abandoned in-flight response
  // must not poison the next query (cancel-by-disconnect).
  auto w0 = StartWorker(0, 0, milliseconds(0));
  auto slow1 = StartWorker(1, 0, milliseconds(1500));

  CoordinatorOptions options;
  options.query_deadline = milliseconds(250);
  options.hedge_delay = milliseconds(60);
  std::vector<ShardAddress> addresses(2);
  addresses[0].primary.port = w0->port();
  addresses[1].primary.port = slow1->port();
  Coordinator coord(LoadShardMap(Split().map_path).value(), addresses,
                    options);
  ASSERT_TRUE(coord.Start().ok());

  DistTopKResult result;
  const Clock::time_point t0 = Clock::now();
  ASSERT_TRUE(coord.TopK(GlobalQuery(), &result).ok());
  const auto elapsed = Clock::now() - t0;
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(result.shards_answered, 1u);
  EXPECT_GE(elapsed, milliseconds(240));
  EXPECT_LT(elapsed, milliseconds(800));

  // Next query re-runs against a still-slow shard: stats accumulate,
  // behavior is unchanged (a stale response from the canceled stream
  // must never be delivered into this query).
  ASSERT_TRUE(coord.TopK(GlobalQuery(), &result).ok());
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(coord.degraded_queries(), 2u);
  coord.Stop();
}

TEST(DistFaultTest, GlobalExplorationRollsBackWhenResolveShardIsDead) {
  // Exploration promotes random global rows; rows owned by a dead
  // shard cannot be resolved, so the coordinator must roll those slots
  // back to the deterministic entries and mark the query degraded —
  // never serve a fabricated score.
  auto w0 = StartWorker(0, 0, milliseconds(0));
  auto w1 = StartWorker(1, 0, milliseconds(0));
  CoordinatorOptions options;
  options.query_deadline = milliseconds(400);
  std::vector<ShardAddress> addresses(2);
  addresses[0].primary.port = w0->port();
  addresses[1].primary.port = w1->port();
  Coordinator coord(LoadShardMap(Split().map_path).value(), addresses,
                    options);
  ASSERT_TRUE(coord.Start().ok());

  TopKQuery query = GlobalQuery();
  query.exploration_epsilon = 0.9;
  query.exploration_seed = 5;

  DistTopKResult result;
  ASSERT_TRUE(coord.TopK(query, &result).ok());
  EXPECT_FALSE(result.degraded);

  w1->Stop();
  ASSERT_TRUE(coord.TopK(query, &result).ok());
  EXPECT_TRUE(result.degraded);
  // Whatever came back carries real scores: every entry's score must
  // be the oracle blend of its row (promoted slots that could not be
  // resolved were rolled back to deterministic entries, which are
  // shard-0 rows here).
  for (const TopKEntry& e : result.entries) {
    const double blend = query.blend_alpha * Bundle().quality()[e.row] +
                         (1.0 - query.blend_alpha) * Bundle().pagerank()[e.row];
    EXPECT_EQ(e.score, blend);
  }
  coord.Stop();
}

TEST(DistFaultTest, WorkerCountsQueriesAndSurvivesCoordinatorRestart) {
  auto w0 = StartWorker(0, 0, milliseconds(0));
  auto w1 = StartWorker(1, 0, milliseconds(0));
  std::vector<ShardAddress> addresses(2);
  addresses[0].primary.port = w0->port();
  addresses[1].primary.port = w1->port();
  const ShardMap map = LoadShardMap(Split().map_path).value();
  for (int round = 0; round < 2; ++round) {
    Coordinator coord(map, addresses, CoordinatorOptions{});
    ASSERT_TRUE(coord.Start().ok());
    DistTopKResult result;
    ASSERT_TRUE(coord.TopK(GlobalQuery(), &result).ok());
    EXPECT_FALSE(result.degraded);
    coord.Stop();
  }
  EXPECT_GE(w0->queries_served(), 2u);
  EXPECT_GE(w1->queries_served(), 2u);
}

}  // namespace
}  // namespace qrank

// query_global / query_routed: open-loop TopK traffic through the
// coordinator tier, against four real qrank_worker processes.
//
// Timeline of one run (every input is derived from --seed):
//   set-up x N  cold PageRank -> bundle build -> 4-way site split ->
//               spawn 4 workers (each answers Info) -> 2 coordinators
//               connect and warm up. setup_s is the median; the last
//               deployment serves the measurement.
//   ladder      Poisson arrivals at 8 rates R_q * 1.25^i, split over two
//               client threads that each own one Coordinator. The rates
//               are interleaved over 5 rounds (one drained slice per
//               step per round), so a slow spell of the host lands on
//               every rate alike. Latency runs from each request's
//               SCHEDULED time. Step 0, the nominal rate R_q, gives the
//               lat_* rows; query_slo_qps is where the steps' p90
//               crosses 1 ms (or their backlog 1%).
//   verify      the first 2,000 queries of the seeded list, replayed
//               through a coordinator, must equal the single-process
//               engine on the unsharded bundle bit for bit.
//
// The traced run additionally probes 1 query in 16 of step 0: the
// client re-sends the same shard request over its own sockets (rpc
// round trip, wire encode/decode) and replays the shard engine on its
// own mmap of the shard bundle — the per-layer split of the query.

#include <fcntl.h>
#include <signal.h>
#include <stdlib.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "dist/coordinator.h"
#include "dist/rpc.h"
#include "dist/shard_map.h"
#include "dist/wire_format.h"
#include "e2e.h"
#include "graph/csr_graph.h"
#include "rank/pagerank.h"
#include "serve/query_engine.h"
#include "serve/score_bundle.h"

namespace qrank_e2e {
namespace {

using qrank::Coordinator;
using qrank::CsrGraph;
using qrank::DistTopKResult;
using qrank::LoadedBundle;
using qrank::NodeId;
using qrank::QueryEngine;
using qrank::Result;
using qrank::Rng;
using qrank::SiteId;
using qrank::Status;
using qrank::TopKQuery;
using qrank::TopKScratch;

constexpr uint32_t kNumShards = 4;
constexpr int kClients = kQueryGeneratorThreads;

// Nominal offered rate R_q over both clients, frozen from the
// calibration in README.md: about a third of query_global's capacity.
constexpr double kNominalQps = 4000.0;
constexpr int kLadderSteps = 8;
constexpr double kLadderGrowth = 1.25;
// The SLO a ladder step must meet. p90, not p99: on a shared 4-core
// host multi-millisecond scheduler stalls set the p99 of a one-second
// step, so a p99 knee moves by whole steps between identical runs.
constexpr double kSloPercentile = 0.90;
constexpr double kSloLimitUs = 1000.0;
constexpr double kSloBacklog = 0.01;
// Rounds of the interleaved ladder, and the share of the measured
// seconds that goes to the nominal rate (the other steps split the
// rest evenly).
constexpr int kRounds = 5;
constexpr double kNominalShare = 0.4;

constexpr size_t kQueriesPerClient = 1 << 14;  // cycled
constexpr size_t kWarmupQueries = 64;
constexpr size_t kVerifyQueries = 2000;
constexpr size_t kProbeEvery = 16;
// Generator lateness (p99) beyond which the run is invalid.
constexpr double kMaxGeneratorLateUs = 1000.0;
constexpr auto kWorkerStartTimeout = std::chrono::seconds(20);
constexpr auto kWorkerGrace = std::chrono::seconds(2);

#ifndef QRANK_E2E_WORKER_PATH
#error "QRANK_E2E_WORKER_PATH must name the qrank_worker binary"
#endif

struct QueryInputs {
  CsrGraph graph;
  std::vector<double> quality_factor;  // Q̂ = PR * factor, per page
  std::array<std::vector<TopKQuery>, kClients> queries;
};

// query_global: every query is the global alpha=0.5 k=10 fan-out.
// query_routed: 50% site-filtered (one shard), 25% global exploration
// (a second, resolve wave), 25% global k=100 (10x larger responses).
TopKQuery MakeQuery(Rng* rng, bool routed) {
  TopKQuery q;
  q.k = 10;
  q.blend_alpha = 0.5;
  if (!routed) return q;
  const uint64_t roll = rng->UniformUint64(100);
  if (roll < 50) {
    q.site = static_cast<SiteId>(rng->UniformUint64(kNumSites));
  } else if (roll < 75) {
    q.blend_alpha = 1.0;
    q.exploration_epsilon = 0.1;
    q.exploration_seed = rng->NextUint64();
  } else {
    q.k = 100;
  }
  return q;
}

QueryInputs MakeInputs(uint64_t seed, bool routed) {
  Rng root(seed);
  Rng graph_rng = root.Split();
  Rng quality_rng = root.Split();
  QueryInputs in;
  in.graph = CsrGraph::FromEdgeList(SiteGraph(&graph_rng)).value();
  // Estimator-shaped quality: Q = PR * (1 + I/PR), relative increase
  // uniform in [-0.5, 2] (bench_perf_serve's MakeSource).
  in.quality_factor.resize(in.graph.num_nodes());
  for (double& f : in.quality_factor) {
    f = 1.0 + quality_rng.UniformDouble(-0.5, 2.0);
  }
  for (int c = 0; c < kClients; ++c) {
    Rng query_rng = root.Split();
    in.queries[c].reserve(kQueriesPerClient);
    for (size_t i = 0; i < kQueriesPerClient; ++i) {
      in.queries[c].push_back(MakeQuery(&query_rng, routed));
    }
  }
  return in;
}

// ---- Worker processes ------------------------------------------------

// fork+exec of one qrank_worker. The child dies with this process
// (PR_SET_PDEATHSIG; forked from the main thread, which lives until
// exit) and its stdout is discarded; the port comes only from the
// --port-file handshake.
Result<pid_t> SpawnWorker(const std::string& bundle, const std::string& meta,
                          const std::string& port_file) {
  std::vector<std::string> args = {QRANK_E2E_WORKER_PATH, "--bundle=" + bundle,
                                   "--meta=" + meta,
                                   "--port-file=" + port_file};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) return Status::IOError("fork failed");
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    const int devnull = open("/dev/null", O_WRONLY);
    if (devnull >= 0) dup2(devnull, STDOUT_FILENO);
    execv(argv[0], argv.data());
    _exit(127);
  }
  return pid;
}

// Waits for the worker's port file to hold a complete line.
Result<uint16_t> AwaitPort(pid_t pid, const std::string& port_file,
                           int64_t deadline_ns) {
  while (NowNs() < deadline_ns) {
    std::ifstream in(port_file);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    if (!text.empty() && text.back() == '\n') {
      const long port = std::strtol(text.c_str(), nullptr, 10);
      if (port <= 0 || port > 65535) {
        return Status::Corruption("bad port file " + port_file);
      }
      return static_cast<uint16_t>(port);
    }
    int wstatus = 0;
    if (waitpid(pid, &wstatus, WNOHANG) == pid) {
      return Status::IOError("worker exited before publishing its port");
    }
    SleepUntilNs(NowNs() + 1000000);
  }
  return Status::IOError("worker did not publish its port in time");
}

// One Info round trip: the worker is serving, and it is the shard the
// benchmark spawned it as.
Status CheckInfo(uint16_t port, uint32_t shard) {
  const qrank::RpcDeadline deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  auto sock = qrank::Socket::Connect("127.0.0.1", port, deadline);
  if (!sock.ok()) return sock.status();
  std::vector<uint8_t> frame;
  qrank::EncodeInfoRequest(1, &frame);
  QRANK_RETURN_NOT_OK(qrank::SendFrame(sock.value(), frame, deadline));
  auto header = qrank::RecvFrame(sock.value(), &frame, deadline);
  if (!header.ok()) return header.status();
  if (header.value().type != qrank::FrameType::kInfoResponse) {
    return Status::Corruption("worker answered Info with another frame");
  }
  qrank::WireInfoResponse info;
  QRANK_RETURN_NOT_OK(qrank::DecodeInfoResponse(
      std::span<const uint8_t>(frame).subspan(qrank::kFrameHeaderBytes),
      &info));
  if (info.shard_index != shard || info.num_shards != kNumShards) {
    return Status::Corruption("worker serves the wrong shard");
  }
  return Status::OK();
}

struct SetupTimes {
  double pagerank_s = 0.0;
  double bundle_s = 0.0;
  double split_s = 0.0;
  double spawn_s = 0.0;
  double connect_s = 0.0;
  double total_s = 0.0;
};

// One live deployment. Every exit path runs the destructor: the
// coordinators stop, each worker gets SIGTERM and, after a grace
// period, SIGKILL, every child is reaped and the shard directory is
// removed — repeated runs leak no processes, ports or files.
class Deployment {
 public:
  explicit Deployment(std::string work_dir) : work_dir_(std::move(work_dir)) {}
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  Status Start(const QueryInputs& in, Tracer::Lane* lane, SetupTimes* times);

  const LoadedBundle& oracle() const { return *oracle_; }
  const qrank::ShardSplit& split() const { return split_; }
  const std::vector<pid_t>& pids() const { return pids_; }
  const std::vector<uint16_t>& ports() const { return ports_; }
  Coordinator* coordinator(int c) { return coordinators_[c].get(); }

 private:
  Status SpawnAll();

  std::string work_dir_;
  std::string dir_;
  std::unique_ptr<LoadedBundle> oracle_;  // the unsharded bundle
  qrank::ShardSplit split_;
  std::vector<pid_t> pids_;
  std::vector<uint16_t> ports_;
  std::vector<std::unique_ptr<Coordinator>> coordinators_;
};

Deployment::~Deployment() {
  for (auto& c : coordinators_) c->Stop();
  coordinators_.clear();
  for (pid_t pid : pids_) kill(pid, SIGTERM);
  const int64_t grace_end =
      NowNs() +
      std::chrono::duration_cast<std::chrono::nanoseconds>(kWorkerGrace)
          .count();
  for (pid_t pid : pids_) {
    int wstatus = 0;
    while (waitpid(pid, &wstatus, WNOHANG) == 0) {
      if (NowNs() >= grace_end) {
        kill(pid, SIGKILL);
        waitpid(pid, &wstatus, 0);
        break;
      }
      SleepUntilNs(NowNs() + 2000000);
    }
  }
  if (!dir_.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
}

Status Deployment::SpawnAll() {
  for (uint32_t s = 0; s < kNumShards; ++s) {
    const std::string port_file = dir_ + "/port_" + std::to_string(s);
    auto pid =
        SpawnWorker(split_.bundle_paths[s], split_.meta_paths[s], port_file);
    if (!pid.ok()) return pid.status();
    pids_.push_back(pid.value());
  }
  const int64_t deadline =
      NowNs() + std::chrono::duration_cast<std::chrono::nanoseconds>(
                    kWorkerStartTimeout)
                    .count();
  for (uint32_t s = 0; s < kNumShards; ++s) {
    auto port =
        AwaitPort(pids_[s], dir_ + "/port_" + std::to_string(s), deadline);
    if (!port.ok()) return port.status();
    ports_.push_back(port.value());
    QRANK_RETURN_NOT_OK(CheckInfo(port.value(), s));
  }
  return Status::OK();
}

Status Deployment::Start(const QueryInputs& in, Tracer::Lane* lane,
                         SetupTimes* times) {
  const int64_t t0 = NowNs();
  qrank::PageRankOptions pr_options;
  pr_options.max_iterations = 30;
  pr_options.scale = qrank::ScaleConvention::kTotalMassN;
  auto pagerank = qrank::ComputePageRank(in.graph, pr_options);
  if (!pagerank.ok()) return pagerank.status();
  const int64_t t1 = NowNs();

  qrank::ScoreBundleSource source;
  source.pagerank = std::move(pagerank.value().scores);
  const NodeId n = static_cast<NodeId>(source.pagerank.size());
  source.quality.resize(n);
  source.site_ids.resize(n);
  for (NodeId i = 0; i < n; ++i) {
    source.quality[i] = source.pagerank[i] * in.quality_factor[i];
    source.site_ids[i] = i / kPagesPerSite;
  }
  source.num_sites = kNumSites;
  auto writer = qrank::ScoreBundleWriter::Create(std::move(source));
  if (!writer.ok()) return writer.status();
  auto bundle = LoadedBundle::FromBuffer(writer.value().Serialize());
  if (!bundle.ok()) return bundle.status();
  oracle_ = std::make_unique<LoadedBundle>(std::move(bundle.value()));
  const int64_t t2 = NowNs();

  std::string tmpl = work_dir_ + "/qrank_e2e_shards_XXXXXX";
  if (mkdtemp(tmpl.data()) == nullptr) {
    return Status::IOError("mkdtemp under " + work_dir_ + " failed");
  }
  dir_ = tmpl;
  auto split = qrank::SplitBundleBySite(*oracle_, kNumShards, dir_);
  if (!split.ok()) return split.status();
  split_ = std::move(split.value());
  const int64_t t3 = NowNs();

  QRANK_RETURN_NOT_OK(SpawnAll());
  const int64_t t4 = NowNs();

  std::vector<qrank::ShardAddress> addresses(kNumShards);
  for (uint32_t s = 0; s < kNumShards; ++s) {
    addresses[s].primary.port = ports_[s];
  }
  DistTopKResult result;
  for (int c = 0; c < kClients; ++c) {
    coordinators_.push_back(std::make_unique<Coordinator>(
        split_.map, addresses, qrank::CoordinatorOptions{}));
    QRANK_RETURN_NOT_OK(coordinators_.back()->Start());
    // Channels connect lazily: the warm-up opens every connection.
    for (size_t i = 0; i < kWarmupQueries; ++i) {
      QRANK_RETURN_NOT_OK(coordinators_.back()->TopK(
          in.queries[c][kQueriesPerClient - 1 - i], &result));
    }
  }
  const int64_t t5 = NowNs();

  times->pagerank_s = static_cast<double>(t1 - t0) / 1e9;
  times->bundle_s = static_cast<double>(t2 - t1) / 1e9;
  times->split_s = static_cast<double>(t3 - t2) / 1e9;
  times->spawn_s = static_cast<double>(t4 - t3) / 1e9;
  times->connect_s = static_cast<double>(t5 - t4) / 1e9;
  times->total_s = static_cast<double>(t5 - t0) / 1e9;
  if (lane != nullptr) {
    const uint64_t root = lane->Record("setup", t0, t5, 0, 0);
    lane->Record("setup.pagerank", t0, t1, root, 0);
    lane->Record("setup.bundle", t1, t2, root, 0);
    lane->Record("setup.split", t2, t3, root, 0);
    lane->Record("setup.spawn", t3, t4, root, 0);
    lane->Record("setup.connect", t4, t5, root, 0);
  }
  return Status::OK();
}

// ---- Clients -----------------------------------------------------------

struct ClientLog {
  Pacer pacer;
  std::vector<double> latency_us;  // scheduled -> TopK returns
  std::vector<double> queue_us;    // scheduled -> TopK called
  std::vector<double> topk_us;     // the TopK call itself
  std::vector<int64_t> end_ns;
  uint64_t failed = 0;
  uint64_t degraded = 0;
  uint64_t shards_asked = 0;
  uint64_t shards_answered = 0;
  uint64_t hedges = 0;
  // Probe rows (traced run).
  std::vector<double> rtt_us;
  std::vector<double> encode_ns;
  std::vector<double> decode_ns;
  std::vector<double> engine_us;
  std::vector<double> self_us;  // TopK span - slowest shard round trip
};

// The traced run's outside view of one query's layers: the same shard
// request over the probe's own persistent sockets, and the shard
// engine on the benchmark's own mmap of each shard bundle.
class Probe {
 public:
  Status Connect(const Deployment& d) {
    const qrank::RpcDeadline deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    for (uint32_t s = 0; s < kNumShards; ++s) {
      auto sock = qrank::Socket::Connect("127.0.0.1", d.ports()[s], deadline);
      if (!sock.ok()) return sock.status();
      sockets_.push_back(std::move(sock.value()));
      auto bundle = LoadedBundle::Load(d.split().bundle_paths[s]);
      if (!bundle.ok()) return bundle.status();
      bundles_.push_back(
          std::make_unique<LoadedBundle>(std::move(bundle.value())));
    }
    return Status::OK();
  }

  void Run(const TopKQuery& query, const qrank::ShardMap& map,
           double topk_us, uint64_t parent, uint64_t request,
           Tracer::Lane* lane, ClientLog* log) {
    const bool site_query = query.site != qrank::kAllSites;
    qrank::WireTopKRequest wire;
    wire.k = query.k;
    wire.site = query.site;
    wire.blend_alpha = query.blend_alpha;
    wire.exploration_epsilon = site_query ? query.exploration_epsilon : 0.0;
    wire.exploration_seed = query.exploration_seed;
    TopKQuery shard_query = query;
    shard_query.exploration_epsilon = wire.exploration_epsilon;
    const uint32_t lo = site_query ? map.ShardForSite(query.site) : 0;
    const uint32_t hi = site_query ? lo + 1 : kNumShards;
    double slowest_us = 0.0;
    for (uint32_t s = lo; s < hi; ++s) {
      wire.request_id = ++next_request_id_;
      const int64_t t0 = NowNs();
      qrank::EncodeTopKRequest(wire, &request_frame_);
      const int64_t t1 = NowNs();
      const qrank::RpcDeadline deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      bool ok = qrank::SendFrame(sockets_[s], request_frame_, deadline).ok() &&
                qrank::RecvFrame(sockets_[s], &response_frame_, deadline).ok();
      const int64_t t2 = NowNs();
      ok = ok && qrank::DecodeTopKResponse(
                     std::span<const uint8_t>(response_frame_)
                         .subspan(qrank::kFrameHeaderBytes),
                     &response_)
                     .ok();
      const int64_t t3 = NowNs();
      ok = QueryEngine::TopKOnBundle(*bundles_[s], shard_query, &scratch_)
               .ok() &&
           ok;
      const int64_t t4 = NowNs();
      if (!ok) {
        ++failures_;
        continue;
      }
      const double rtt = static_cast<double>(t2 - t1) / 1e3;
      slowest_us = std::max(slowest_us, rtt);
      log->encode_ns.push_back(static_cast<double>(t1 - t0));
      log->rtt_us.push_back(rtt);
      log->decode_ns.push_back(static_cast<double>(t3 - t2));
      log->engine_us.push_back(static_cast<double>(t4 - t3) / 1e3);
      lane->Record("dist.wire.encode", t0, t1, parent, request);
      lane->Record("dist.rpc.roundtrip", t1, t2, parent, request);
      lane->Record("dist.wire.decode", t2, t3, parent, request);
      lane->Record("serve.engine.topk", t3, t4, parent, request);
    }
    log->self_us.push_back(topk_us - slowest_us);
  }

  uint64_t failures() const { return failures_; }

 private:
  std::vector<qrank::Socket> sockets_;
  std::vector<std::unique_ptr<LoadedBundle>> bundles_;
  std::vector<uint8_t> request_frame_;
  std::vector<uint8_t> response_frame_;
  qrank::WireTopKResponse response_;
  TopKScratch scratch_;
  uint64_t next_request_id_ = 0;
  uint64_t failures_ = 0;
};

// One client thread's share of a phase: paced TopK calls, each timed
// from its scheduled time.
void RunClient(Coordinator* coord, const std::vector<TopKQuery>& queries,
               size_t* cursor, const std::vector<int64_t>& due,
               int64_t base_ns, Probe* probe, Tracer::Lane* lane,
               uint64_t request_tag, ClientLog* log) {
  TightenTimerSlack();
  DistTopKResult result;
  result.entries.reserve(128);
  for (size_t i = 0; i < due.size(); ++i) {
    const TopKQuery& query = queries[(*cursor)++ % queries.size()];
    const int64_t due_ns = base_ns + due[i];
    const int64_t start = log->pacer.Wait(due_ns);
    const Status st = coord->TopK(query, &result);
    const int64_t end = NowNs();
    const bool ok = st.ok() && !result.degraded;
    if (!ok) ++log->failed;
    if (result.degraded) ++log->degraded;
    log->shards_asked += result.shards_asked;
    log->shards_answered += result.shards_answered;
    log->hedges += result.hedges_fired;
    const double topk_us = static_cast<double>(end - start) / 1e3;
    log->latency_us.push_back(ok ? static_cast<double>(end - due_ns) / 1e3
                                 : kFailed);
    log->queue_us.push_back(static_cast<double>(start - due_ns) / 1e3);
    log->topk_us.push_back(topk_us);
    log->end_ns.push_back(end);
    if (lane != nullptr) {
      const uint64_t request = request_tag | i;
      const uint64_t root = lane->NewId();
      lane->Record(root, "query", due_ns, end, 0, request);
      const uint64_t topk = lane->Record("dist.coord.topk", start, end, root,
                                         request);
      if (probe != nullptr && ok && i % kProbeEvery == 0) {
        probe->Run(query, coord->shard_map(), topk_us, topk, request, lane,
                   log);
      }
    }
    log->pacer.Done(NowNs());
  }
}

std::vector<double> Collect(const std::array<ClientLog, kClients>& logs,
                            std::vector<double> ClientLog::*field) {
  std::vector<double> all;
  for (const ClientLog& log : logs) {
    all.insert(all.end(), (log.*field).begin(), (log.*field).end());
  }
  return all;
}

// Everything one ladder step measured, over all its slices.
struct StepLog {
  double rate = 0.0;
  std::array<ClientLog, kClients> clients;
  uint64_t backlog = 0;  // requests unfinished at the end of their slice
};

// One slice of a step: both clients, starting together, each at half
// the step's rate for `seconds`; returns once both have drained.
void RunSlice(Deployment* d, const QueryInputs& in, double seconds,
              uint64_t tag, Rng* schedule_rng,
              std::array<size_t, kClients>* cursors,
              std::array<Probe*, kClients> probes,
              std::array<Tracer::Lane*, kClients> lanes, StepLog* step) {
  std::array<std::vector<int64_t>, kClients> due;
  std::array<size_t, kClients> before = {};
  for (int c = 0; c < kClients; ++c) {
    due[c] = PoissonArrivals(schedule_rng, step->rate / kClients, seconds);
    before[c] = step->clients[c].end_ns.size();
  }
  const int64_t base = NowNs() + 2000000;
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      RunClient(d->coordinator(c), in.queries[c], &(*cursors)[c], due[c],
                base, probes[c], lanes[c],
                (tag << 48) | (uint64_t{static_cast<uint32_t>(c)} << 40),
                &step->clients[c]);
    });
  }
  for (std::thread& t : threads) t.join();
  const int64_t slice_end = base + static_cast<int64_t>(seconds * 1e9);
  for (int c = 0; c < kClients; ++c) {
    const std::vector<int64_t>& end = step->clients[c].end_ns;
    for (size_t k = before[c]; k < end.size(); ++k) {
      step->backlog += end[k] > slice_end ? 1 : 0;
    }
  }
}

struct Step {
  double rate = 0.0;
  double tail_us = 0.0;  // at kSloPercentile
  double backlog = 0.0;  // share of the step's requests left at slice ends
  double badness() const {
    return std::max(tail_us / kSloLimitUs, backlog / kSloBacklog);
  }
};

Step Summarize(const StepLog& log) {
  std::vector<double> lat = Collect(log.clients, &ClientLog::latency_us);
  Step step;
  step.rate = log.rate;
  step.tail_us = Percentile(&lat, kSloPercentile);
  step.backlog = lat.empty() ? 0.0
                             : static_cast<double>(log.backlog) /
                                   static_cast<double>(lat.size());
  return step;
}

// The rate where the ladder crosses the SLO: geometric interpolation
// of badness (<= 1 passes) between the highest passing step and the
// failing step above it, so the result moves smoothly instead of in
// whole 25% steps. `censored` when the knee lies outside the ladder.
double SloRate(const std::vector<Step>& steps, bool* censored) {
  const int last = static_cast<int>(steps.size()) - 1;
  int pass = -1;
  for (int i = 0; i <= last; ++i) {
    if (steps[i].badness() <= 1.0) pass = i;
  }
  *censored = pass == last || pass < 0;
  if (pass == last) return steps.back().rate;
  if (pass < 0) return steps[0].rate / steps[0].badness();
  const Step& lo = steps[pass];
  const Step& hi = steps[pass + 1];
  const double t = std::log(1.0 / lo.badness()) /
                   std::log(hi.badness() / lo.badness());
  return lo.rate * std::pow(hi.rate / lo.rate, std::clamp(t, 0.0, 1.0));
}

// The replay oracle: distributed answers equal the single-process
// engine's on the unsharded bundle, element for element and bitwise.
void Verify(Coordinator* coord, const LoadedBundle& oracle,
            const std::vector<TopKQuery>& queries, WorkloadResult* r) {
  DistTopKResult dist;
  TopKScratch scratch;
  size_t mismatches = 0;
  for (size_t i = 0; i < kVerifyQueries; ++i) {
    const TopKQuery& q = queries[i];
    const Status st = coord->TopK(q, &dist);
    const Status want_st = QueryEngine::TopKOnBundle(oracle, q, &scratch);
    const auto want = scratch.results();
    bool same = st.ok() && want_st.ok() && !dist.degraded &&
                dist.entries.size() == want.size();
    for (size_t j = 0; same && j < want.size(); ++j) {
      const qrank::TopKEntry& a = dist.entries[j];
      same = a.row == want[j].row && a.page_id == want[j].page_id &&
             std::bit_cast<uint64_t>(a.score) ==
                 std::bit_cast<uint64_t>(want[j].score) &&
             a.promoted == want[j].promoted;
    }
    if (!same) ++mismatches;
  }
  if (mismatches > 0) {
    r->Fail(std::to_string(mismatches) + " of " +
            std::to_string(kVerifyQueries) +
            " replayed queries differ from the single-process engine");
  }
}

ProcUsage WorkerUsage(const Deployment& d) {
  ProcUsage sum;
  for (pid_t pid : d.pids()) {
    const ProcUsage u = ReadProcUsage(pid);
    sum.cpu_ns += u.cpu_ns;
    sum.ctxsw += u.ctxsw;
  }
  return sum;
}

// Per-layer rows of phase A, measured from outside.
void AddLayerRows(const std::array<ClientLog, kClients>& logs,
                  ProcUsage coord_usage, ProcUsage worker_usage,
                  const std::vector<SetupTimes>& setups, WorkloadResult* r) {
  std::vector<double> topk = Collect(logs, &ClientLog::topk_us);
  std::vector<double> queue = Collect(logs, &ClientLog::queue_us);
  std::vector<double> rtt = Collect(logs, &ClientLog::rtt_us);
  std::vector<double> engine = Collect(logs, &ClientLog::engine_us);
  const double encode_ns = Median(Collect(logs, &ClientLog::encode_ns));
  const double decode_ns = Median(Collect(logs, &ClientLog::decode_ns));
  const double self_us = Median(Collect(logs, &ClientLog::self_us));
  uint64_t asked = 0, answered = 0, hedges = 0, degraded = 0;
  for (const ClientLog& log : logs) {
    asked += log.shards_asked;
    answered += log.shards_answered;
    hedges += log.hedges;
    degraded += log.degraded;
  }
  const double queries = static_cast<double>(topk.size());
  const double topk_p50 = Percentile(&topk, 0.50);
  const double topk_p99 = Percentile(&topk, 0.99);
  const double rtt_p99 = Percentile(&rtt, 0.99);
  const double engine_p50 = Percentile(&engine, 0.50);
  const double coord_cpu_us = static_cast<double>(coord_usage.cpu_ns) / 1e3;
  const double worker_cpu_us = static_cast<double>(worker_usage.cpu_ns) / 1e3;
  const double coord_ctxsw = static_cast<double>(coord_usage.ctxsw);
  const double worker_ctxsw = static_cast<double>(worker_usage.ctxsw);

  r->Add("dist.coord.topk_us.p50", topk_p50, "us");
  r->Add("dist.coord.topk_us.p99", topk_p99, "us");
  r->Add("dist.coord.self_us.p50", self_us, "us");
  r->Add("dist.rpc.rtt_us.p50", Percentile(&rtt, 0.50), "us");
  r->Add("dist.rpc.rtt_us.p99", rtt_p99, "us");
  r->Add("dist.wire.encode_ns", encode_ns, "ns");
  r->Add("dist.wire.decode_ns", decode_ns, "ns");
  r->Add("dist.coord.cpu_us_per_query", coord_cpu_us / queries, "us");
  r->Add("dist.worker.cpu_us_per_query", worker_cpu_us / queries, "us");
  r->Add("dist.coord.ctxsw_per_query", coord_ctxsw / queries, "count");
  r->Add("dist.worker.ctxsw_per_query", worker_ctxsw / queries, "count");
  r->Add("dist.coord.shards_per_query", static_cast<double>(asked) / queries,
         "count");
  r->Add("dist.coord.answered_ratio",
         asked > 0 ? static_cast<double>(answered) / static_cast<double>(asked)
                   : 0.0,
         "ratio");
  r->Add("dist.coord.hedges", static_cast<double>(hedges), "count");
  r->Add("dist.coord.degraded", static_cast<double>(degraded), "count");
  r->Add("dist.coord.cpu_frac", coord_cpu_us / (coord_cpu_us + worker_cpu_us),
         "ratio");
  r->Add("dist.coord.self_frac", self_us / topk_p50, "ratio");
  r->Add("dist.rpc.tail_frac", rtt_p99 / topk_p99, "ratio");
  r->Add("dist.wire.codec_frac", (encode_ns + decode_ns) / 1e3 / topk_p50,
         "ratio");
  r->Add("serve.engine.topk_us.p50", engine_p50, "us");
  r->Add("serve.engine.topk_us.p99", Percentile(&engine, 0.99), "us");
  r->Add("serve.engine.query_frac", engine_p50 / topk_p50, "ratio");
  r->Add("host.ctxsw_per_op", (coord_ctxsw + worker_ctxsw) / queries, "count");
  r->Add("bench.queue_us.p99", Percentile(&queue, 0.99), "us");

  // Each set-up step as a share of its set-up, median over set-ups.
  const struct {
    const char* name;
    double SetupTimes::*field;
  } kSetupSteps[] = {{"setup.pagerank_frac", &SetupTimes::pagerank_s},
                     {"setup.bundle_frac", &SetupTimes::bundle_s},
                     {"setup.split_frac", &SetupTimes::split_s},
                     {"setup.spawn_frac", &SetupTimes::spawn_s},
                     {"setup.connect_frac", &SetupTimes::connect_s}};
  for (const auto& step : kSetupSteps) {
    std::vector<double> share;
    for (const SetupTimes& t : setups) {
      share.push_back(t.*step.field / t.total_s);
    }
    r->Add(step.name, Median(share), "ratio");
  }
}

}  // namespace

WorkloadResult RunQueryWorkload(const RunConfig& config, bool routed) {
  WorkloadResult r;
  r.name = routed ? "query_routed" : "query_global";
  const QueryInputs in = MakeInputs(config.seed, routed);
  Tracer* tracer = config.tracer;
  Tracer::Lane* main_lane =
      tracer != nullptr ? tracer->NewLane("main") : nullptr;

  // Set-up, N times; the last deployment serves the timed phases.
  double host_warmup_s = WarmUpHost(kWarmUpHostMaxS);
  std::vector<SetupTimes> setups(std::max(1, config.setups));
  std::unique_ptr<Deployment> d;
  for (SetupTimes& times : setups) {
    d.reset();  // tear the previous deployment down first
    d = std::make_unique<Deployment>(config.work_dir);
    const Status st = d->Start(in, main_lane, &times);
    if (!st.ok()) {
      r.Fail("set-up failed: " + st.ToString());
      return r;
    }
  }

  std::array<Probe, kClients> probe_storage;
  std::array<Probe*, kClients> probes = {};
  std::array<Tracer::Lane*, kClients> lanes = {};
  if (tracer != nullptr) {
    for (int c = 0; c < kClients; ++c) {
      const Status st = probe_storage[c].Connect(*d);
      if (!st.ok()) {
        r.Fail("probe connect failed: " + st.ToString());
        return r;
      }
      probes[c] = &probe_storage[c];
      lanes[c] = tracer->NewLane("client" + std::to_string(c));
    }
  }

  Rng schedule_rng(config.seed ^ 0x5ca1ab1eULL);
  std::array<size_t, kClients> cursors = {};

  // The interleaved ladder (see the header comment).
  std::vector<StepLog> logs(kLadderSteps);
  for (int i = 0; i < kLadderSteps; ++i) {
    logs[i].rate = kNominalQps * std::pow(kLadderGrowth, i);
  }
  const double nominal_slice_s = config.seconds * kNominalShare / kRounds;
  const double other_slice_s = config.seconds * (1.0 - kNominalShare) /
                               ((kLadderSteps - 1) * kRounds);
  ProcUsage coord_usage;
  ProcUsage worker_usage;
  for (int round = 0; round < kRounds; ++round) {
    host_warmup_s += WarmUpHost(kWarmUpHostMaxS);
    for (int i = 0; i < kLadderSteps; ++i) {
      const uint64_t tag = static_cast<uint64_t>(round * kLadderSteps + i + 1);
      if (i > 0) {
        RunSlice(d.get(), in, other_slice_s, tag, &schedule_rng, &cursors, {},
                 {}, &logs[i]);
        continue;
      }
      const ProcUsage self0 = SelfUsage();
      const ProcUsage workers0 = WorkerUsage(*d);
      RunSlice(d.get(), in, nominal_slice_s, tag, &schedule_rng, &cursors,
               probes, lanes, &logs[0]);
      const ProcUsage self1 = SelfUsage();
      const ProcUsage workers1 = WorkerUsage(*d);
      coord_usage.cpu_ns += self1.cpu_ns - self0.cpu_ns;
      coord_usage.ctxsw += self1.ctxsw - self0.ctxsw;
      worker_usage.cpu_ns += workers1.cpu_ns - workers0.cpu_ns;
      worker_usage.ctxsw += workers1.ctxsw - workers0.ctxsw;
    }
  }
  double rss_mb = 0.0;
  for (pid_t pid : d->pids()) rss_mb += PeakRssMb(pid);

  // End-to-end rows.
  std::vector<double> setup_s;
  for (const SetupTimes& t : setups) setup_s.push_back(t.total_s);
  std::vector<Step> steps;
  std::vector<double> late;
  for (const StepLog& log : logs) {
    steps.push_back(Summarize(log));
    for (const ClientLog& c : log.clients) {
      r.attempted += c.latency_us.size();
      r.failed += c.failed;
      late.insert(late.end(), c.pacer.late_us().begin(),
                  c.pacer.late_us().end());
    }
  }
  std::vector<double> lat = Collect(logs[0].clients, &ClientLog::latency_us);
  bool censored = false;
  const double queries = static_cast<double>(lat.size());
  r.Add("setup_s", Median(setup_s), "s");
  r.Add("rss_mb", rss_mb, "MiB");
  r.Add("lat_p50_us", Percentile(&lat, 0.50), "us");
  r.Add("lat_p90_us", Percentile(&lat, 0.90), "us");
  r.Add("cpu_us_per_op",
        static_cast<double>(coord_usage.cpu_ns + worker_usage.cpu_ns) / 1e3 /
            queries,
        "us");
  r.Add("lat_p99_us", Percentile(&lat, 0.99), "us");
  r.Add("query_slo_qps", SloRate(steps, &censored), "1/s");
  r.Add("fail_frac",
        static_cast<double>(r.failed) / static_cast<double>(r.attempted),
        "ratio");
  r.Add("bench.samples", queries, "count");
  r.Add("bench.slo_censored", censored ? 1.0 : 0.0, "count");
  r.Add("bench.host_warmup_s", host_warmup_s, "s");
  const double late_p99 = Percentile(&late, 0.99);
  r.Add("bench.gen_late_p99_us", late_p99, "us");
  if (late_p99 > kMaxGeneratorLateUs) {
    r.invalid.push_back("generator lateness p99 " + std::to_string(late_p99) +
                        " us over " + std::to_string(kMaxGeneratorLateUs));
  }
  for (int i = 0; i < kLadderSteps; ++i) {
    r.Add("query.step" + std::to_string(i) + ".p90_us", steps[i].tail_us,
          "us");
  }
  if (tracer != nullptr) {
    AddLayerRows(logs[0].clients, coord_usage, worker_usage, setups, &r);
    for (const Probe& probe : probe_storage) {
      if (probe.failures() > 0) {
        r.Fail(std::to_string(probe.failures()) + " probe round trips failed");
      }
    }
  }

  Verify(d->coordinator(0), d->oracle(), in.queries[0], &r);
  return r;
}

}  // namespace qrank_e2e


// ingest_steady / ingest_burst: the freshness path, edge event to
// servable TopK, in one process with reads running beside the writes.
//
// A run is a few independent episodes, each on a freshly set-up service
// (every input is derived from --seed):
//   set-up    IngestService::Create + Start on the 131k site graph
//             (cold solve, initial export and publish); setup_s is the
//             median over the episodes.
//   warm-up   the first second of the episode's event and read
//             streams, untimed.
//   window    the episode's share of the measured seconds, driven by
//             three generator threads:
//               producer  enqueues crawler-shaped events at their
//                         scheduled times (steady: Poisson at R_e;
//                         burst: 2,048 events due every second);
//               watcher   blocks in WaitServable and stamps each event
//                         when servable_sequence() covers it;
//               reader    Poisson TopK reads at 2,000/s against the
//                         service's SnapshotStore.
//             Freshness runs from each event's SCHEDULED time.
//   verify    after Stop(): every accepted event servable, every read
//             answered, and the published PageRank within the drift
//             budget of a scratch solve of CurrentGraph().
// The metrics pool the windows of all episodes. Episodes, rather than
// one long window, keep the random long-range links the stream adds
// from piling up: each generation on an ever more mixed graph touches
// more pages, so a single long window would make every number depend
// on the run's length.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "e2e.h"
#include "graph/csr_graph.h"
#include "graph/edge_list.h"
#include "ingest/ingest_service.h"
#include "rank/pagerank.h"
#include "serve/query_engine.h"
#include "serve/snapshot_store.h"

namespace qrank_e2e {
namespace {

using qrank::CsrGraph;
using qrank::EdgeList;
using qrank::IngestGenerationInfo;
using qrank::IngestService;
using qrank::IngestStats;
using qrank::NodeId;
using qrank::Rng;
using qrank::SiteId;
using qrank::SnapshotStore;
using qrank::Status;
using qrank::TopKQuery;
using qrank::UpdateEvent;

constexpr NodeId kNumPages = kNumSites * kPagesPerSite;

// Nominal event rate R_e (see README.md): ingest_burst's 2,048 events
// per second fix the shared average rate, and the pipeline absorbs
// backlogs an order of magnitude faster, so the queue does not grow.
constexpr double kEventRate = 2048.0;
constexpr size_t kBurstEvents = 2048;
constexpr double kBurstPeriodS = kBurstEvents / kEventRate;
constexpr double kReadQps = 2000.0;
// Untimed lead-in of each episode: a third of its window, at most 1 s.
constexpr double kMaxWarmupS = 1.0;
constexpr auto kDrainTimeout = std::chrono::seconds(10);
// Generator lateness (p99) beyond which the run is invalid. Higher than
// query_*'s 1 ms because the service's parallel export occupies every
// core by design, so each generator wake-up may queue behind it for a
// scheduler slice (1.6-2.2 ms p99 on every seed of the calibration
// host); that wait is charged to the measured latencies, which run from
// the scheduled time. A disturbed host shows up far above it.
constexpr double kMaxGeneratorLateUs = 5000.0;

struct EpisodeInputs {
  std::vector<UpdateEvent> events;
  std::vector<int64_t> event_due;  // ns after the episode's warm-up starts
  std::vector<TopKQuery> reads;
  std::vector<int64_t> read_due;
};

struct IngestInputs {
  CsrGraph graph;
  double warmup_s = 0.0;  // per episode
  double window_s = 0.0;
  std::vector<EpisodeInputs> episodes;
};

// Crawler-shaped event mix (bench_perf_ingest's NextEvent): 55% new
// links, 20% removals of seed links, 25% visits.
UpdateEvent NextEvent(Rng* rng, const EdgeList& seed) {
  const uint64_t roll = rng->UniformUint64(100);
  if (roll < 55) {
    return UpdateEvent::AddEdge(
        static_cast<NodeId>(rng->UniformUint64(kNumPages)),
        static_cast<NodeId>(rng->UniformUint64(kNumPages)));
  }
  if (roll < 75) {
    const auto& e = seed.edges()[rng->UniformUint64(seed.num_edges())];
    return UpdateEvent::RemoveEdge(e.src, e.dst);
  }
  return UpdateEvent::Visit(static_cast<NodeId>(rng->UniformUint64(kNumPages)));
}

IngestInputs MakeInputs(const RunConfig& config, bool burst) {
  Rng root(config.seed);
  Rng graph_rng = root.Split();
  IngestInputs in;
  const EdgeList edges = SiteGraph(&graph_rng);
  in.graph = CsrGraph::FromEdgeList(edges).value();
  const int episodes = std::max(1, config.setups);
  in.window_s = config.seconds / episodes;
  in.warmup_s = std::min(kMaxWarmupS, in.window_s / 3);
  const double total_s = in.warmup_s + in.window_s;
  for (int e = 0; e < episodes; ++e) {
    Rng event_rng = root.Split();
    Rng schedule_rng = root.Split();
    Rng read_rng = root.Split();
    EpisodeInputs ep;
    if (burst) {
      for (double t = 0.5 * kBurstPeriodS; t < total_s; t += kBurstPeriodS) {
        ep.event_due.insert(ep.event_due.end(), kBurstEvents,
                            static_cast<int64_t>(t * 1e9));
      }
    } else {
      ep.event_due = PoissonArrivals(&schedule_rng, kEventRate, total_s);
    }
    for (size_t i = 0; i < ep.event_due.size(); ++i) {
      ep.events.push_back(NextEvent(&event_rng, edges));
    }
    // 75% global alpha=0.5 k=10, 25% site-filtered.
    ep.read_due = PoissonArrivals(&schedule_rng, kReadQps, total_s);
    for (size_t i = 0; i < ep.read_due.size(); ++i) {
      TopKQuery q;
      q.k = 10;
      q.blend_alpha = 0.5;
      if (read_rng.UniformUint64(4) == 0) {
        q.site = static_cast<SiteId>(read_rng.UniformUint64(kNumSites));
      }
      ep.reads.push_back(q);
    }
    in.episodes.push_back(std::move(ep));
  }
  return in;
}

qrank::IngestOptions ServiceOptions() {
  qrank::IngestOptions options;  // pipelined, 4096 / 50 ms, all cores
  options.num_sites = kNumSites;
  options.site_of = [](NodeId page) {
    return static_cast<SiteId>(page / kPagesPerSite);
  };
  return options;
}

// A service and the store it publishes into (the store outlives it).
struct Deployment {
  std::unique_ptr<SnapshotStore> store;
  std::unique_ptr<IngestService> service;

  ~Deployment() {
    if (service != nullptr) service->Stop();
  }
};

// Exact (sum / count) share of a stage histogram between two Stats()
// reads, summed over episodes.
struct StageWindow {
  double sum_ms = 0.0;
  double count = 0.0;
  double mean() const { return count > 0 ? sum_ms / count : 0.0; }
  void AddBetween(const qrank::IngestStageStats& a,
                  const qrank::IngestStageStats& b) {
    count += static_cast<double>(b.count - a.count);
    sum_ms += b.mean_ms * static_cast<double>(b.count) -
              a.mean_ms * static_cast<double>(a.count);
  }
};

// True when the queue backlog grows through a window: the last
// quarter's mean depth exceeds twice the first quarter's by more than
// one full batch.
bool QueueGrows(const std::vector<double>& depth, double batch) {
  if (depth.size() < 8) return false;
  const size_t q = depth.size() / 4;
  double first = 0.0;
  double last = 0.0;
  for (size_t i = 0; i < q; ++i) {
    first += depth[i];
    last += depth[depth.size() - 1 - i];
  }
  first /= static_cast<double>(q);
  last /= static_cast<double>(q);
  return last > 2.0 * first + batch;
}

// Everything the windows of a run's episodes measured, pooled.
struct Pooled {
  std::vector<double> setup_s;
  std::vector<double> fresh_us;       // window events; kFailed = never servable
  std::vector<double> read_us;        // window reads, scheduled -> answer
  std::vector<double> read_queue_us;  // scheduled -> TopK called
  std::vector<double> read_call_us;   // the TopK call
  std::vector<double> enqueue_us;     // window Enqueue calls
  std::vector<double> late_us;        // producer and reader lateness
  uint64_t events = 0;                // window events scheduled
  uint64_t reads_failed = 0;
  uint64_t repins = 0;
  uint64_t max_depth = 0;
  bool queue_grew = false;
  double rss_mb = 0.0;  // peak RSS through the first window
  ProcUsage host;        // the service's CPU and switches in the windows
  double wall_ms = 0.0;  // window open -> last event servable
  StageWindow apply, solve, estimate, export_, publish;
  double gens = 0, gen_events = 0, delta = 0, sweeps = 0, updates = 0;
  double swept = 0, structural = 0;
};

struct Lanes {
  Tracer::Lane* main = nullptr;
  Tracer::Lane* producer = nullptr;
  Tracer::Lane* reader = nullptr;
  Tracer::Lane* watcher = nullptr;
};

// Scratch-solve oracle: the published PageRank must sit within the
// drift budget of a cold solve of the graph the service ended on.
void VerifyPageRank(const IngestService& service, const SnapshotStore& store,
                    WorkloadResult* r) {
  const CsrGraph& graph = service.CurrentGraph();
  const qrank::PageRankOptions rank = qrank::DefaultIngestRankOptions().base;
  auto scratch = qrank::ComputePageRank(graph, rank);
  const auto bundle = store.Acquire();
  if (!scratch.ok() || bundle == nullptr ||
      bundle->pagerank().size() != scratch.value().scores.size()) {
    r->Fail("scratch PageRank or final bundle unavailable");
    return;
  }
  double l1 = 0.0;
  for (size_t i = 0; i < scratch.value().scores.size(); ++i) {
    l1 += std::fabs(bundle->pagerank()[i] - scratch.value().scores[i]);
  }
  // Each solve stops within tol/(1-d) (L1, probability scale) of the
  // fixed point, so two solves may differ by twice that; the mass-n
  // scale multiplies by n (DESIGN §5f).
  const double budget = 2.0 * static_cast<double>(graph.num_nodes()) *
                        rank.tolerance / (1.0 - rank.damping);
  if (!(l1 <= budget)) {
    r->Fail("published PageRank drifted " + std::to_string(l1) +
            " (L1) from a scratch solve; budget " + std::to_string(budget));
  }
}

// One episode: set-up, warm-up, window, drain, verification.
void RunEpisode(const IngestInputs& in, const EpisodeInputs& ep, bool burst,
                const Lanes& lanes, Pooled* p, WorkloadResult* r) {
  Deployment d;
  d.store = std::make_unique<SnapshotStore>();
  CsrGraph graph = in.graph;  // the input, copied outside the timer
  const int64_t t0 = NowNs();
  auto created =
      IngestService::Create(std::move(graph), d.store.get(), ServiceOptions());
  const Status st = created.ok() ? created.value()->Start() : created.status();
  const int64_t t1 = NowNs();
  if (!st.ok()) {
    r->Fail("set-up failed: " + st.ToString());
    return;
  }
  d.service = std::move(created.value());
  p->setup_s.push_back(static_cast<double>(t1 - t0) / 1e9);
  if (lanes.main != nullptr) {
    lanes.main->Record("setup.ingest_start", t0, t1, 0, 0);
  }
  IngestService& service = *d.service;
  const SnapshotStore& store = *d.store;

  const size_t num_events = ep.events.size();
  std::vector<int64_t> due_by_seq(num_events + 1, 0);
  std::vector<double> fresh_us(num_events + 1, kFailed);
  std::atomic<uint64_t> accepted{0};
  std::atomic<bool> producer_done{false};
  const int64_t base = NowNs() + 5000000;
  const int64_t window_start = base + static_cast<int64_t>(in.warmup_s * 1e9);
  const int64_t window_end =
      window_start + static_cast<int64_t>(in.window_s * 1e9);
  const int64_t drain_deadline =
      window_end +
      std::chrono::duration_cast<std::chrono::nanoseconds>(kDrainTimeout)
          .count();
  // Each generator thread's usage runs from the window's start.
  ProcUsage producer_usage, reader_usage, watcher_usage;
  Pacer producer_pacer, reader_pacer;
  std::vector<double> enqueue_us, read_us, read_queue_us, read_call_us, depth;
  uint64_t reads_failed = 0;
  uint64_t repins = 0;

  std::thread producer([&] {
    TightenTimerSlack();
    ProcUsage u0 = ThreadUsage();
    for (size_t i = 0; i < num_events; ++i) {
      const int64_t due_ns = base + ep.event_due[i];
      if (i > 0 && due_ns >= window_start &&
          base + ep.event_due[i - 1] < window_start) {
        u0 = ThreadUsage();
      }
      const int64_t start = producer_pacer.Wait(due_ns);
      const Status pushed = service.Enqueue(ep.events[i]);
      const int64_t end = NowNs();
      producer_pacer.Done(end);
      if (due_ns >= window_start) {
        enqueue_us.push_back(static_cast<double>(end - start) / 1e3);
      }
      if (!pushed.ok()) continue;
      // One producer: the k-th accepted push carries sequence k.
      const uint64_t seq = accepted.load(std::memory_order_relaxed) + 1;
      due_by_seq[seq] = due_ns;
      accepted.store(seq, std::memory_order_release);
      if (lanes.producer != nullptr) {
        lanes.producer->Record("ingest.enqueue", start, end, 0, seq);
      }
    }
    producer_done.store(true, std::memory_order_release);
    const ProcUsage u1 = ThreadUsage();
    producer_usage = {u1.cpu_ns - u0.cpu_ns, u1.ctxsw - u0.ctxsw};
  });

  std::thread watcher([&] {
    TightenTimerSlack();
    ProcUsage u0 = ThreadUsage();
    bool in_window = false;
    uint64_t next = 1;
    int64_t next_depth_ns = window_start;
    for (;;) {
      const int64_t now = NowNs();
      if (!in_window && now >= window_start) {
        in_window = true;
        u0 = ThreadUsage();
      }
      if (now >= next_depth_ns && now < window_end) {
        depth.push_back(static_cast<double>(service.queue().depth()));
        next_depth_ns = now + 10000000;
      }
      if (next > accepted.load(std::memory_order_acquire)) {
        if (producer_done.load(std::memory_order_acquire) &&
            next > accepted.load(std::memory_order_acquire)) {
          break;
        }
        SleepUntilNs(NowNs() + 200000);
        continue;
      }
      if (now > drain_deadline) break;
      const int64_t wait_start = NowNs();
      if (!service.WaitServable(next, std::chrono::milliseconds(10))) continue;
      const int64_t seen = NowNs();
      const uint64_t servable =
          std::min(service.servable_sequence(),
                   accepted.load(std::memory_order_acquire));
      for (uint64_t q = next; q <= servable; ++q) {
        fresh_us[q] = static_cast<double>(seen - due_by_seq[q]) / 1e3;
      }
      if (lanes.watcher != nullptr) {
        lanes.watcher->Record("ingest.servable", wait_start, seen, 0, servable);
      }
      next = servable + 1;
    }
    const ProcUsage u1 = ThreadUsage();
    watcher_usage = {u1.cpu_ns - u0.cpu_ns, u1.ctxsw - u0.ctxsw};
  });

  std::thread reader([&] {
    TightenTimerSlack();
    ProcUsage u0 = ThreadUsage();
    const qrank::QueryEngine engine(&store);
    qrank::TopKScratch scratch;
    uint64_t generation = store.generation();
    for (size_t i = 0; i < ep.reads.size(); ++i) {
      const int64_t due_ns = base + ep.read_due[i];
      if (i > 0 && due_ns >= window_start &&
          base + ep.read_due[i - 1] < window_start) {
        u0 = ThreadUsage();
      }
      const int64_t start = reader_pacer.Wait(due_ns);
      const Status answered = engine.TopK(ep.reads[i], &scratch);
      const int64_t end = NowNs();
      reader_pacer.Done(end);
      if (!answered.ok()) ++reads_failed;
      if (due_ns < window_start) continue;
      read_us.push_back(answered.ok() ? static_cast<double>(end - due_ns) / 1e3
                                      : kFailed);
      read_queue_us.push_back(static_cast<double>(start - due_ns) / 1e3);
      read_call_us.push_back(static_cast<double>(end - start) / 1e3);
      const uint64_t g = store.generation();
      if (g != generation) {
        ++repins;
        generation = g;
      }
      if (lanes.reader != nullptr) {
        const uint64_t root = lanes.reader->NewId();
        lanes.reader->Record(root, "read", due_ns, end, 0, i + 1);
        lanes.reader->Record("serve.engine.topk", start, end, root, i + 1);
      }
    }
    const ProcUsage u1 = ThreadUsage();
    reader_usage = {u1.cpu_ns - u0.cpu_ns, u1.ctxsw - u0.ctxsw};
  });

  // The window opens after the warm-up: snapshot the service there.
  SleepUntilNs(window_start);
  const IngestStats stats0 = service.Stats();
  const size_t log0 = service.GenerationLog().size();
  const ProcUsage self0 = SelfUsage();
  producer.join();
  reader.join();
  watcher.join();
  const int64_t drained = NowNs();
  const IngestStats stats1 = service.Stats();
  const ProcUsage self1 = SelfUsage();
  const std::vector<IngestGenerationInfo> log = service.GenerationLog();
  // The process peak before any verification runs in it: the service's
  // own footprint (later episodes repeat it).
  if (p->rss_mb == 0.0) p->rss_mb = PeakRssMb(0);
  const Status stopped = service.Stop();

  // Verification.
  const uint64_t total = service.queue().Stats().enqueued;
  if (!stopped.ok() || !service.status().ok()) {
    r->Fail("ingest loop failed: " +
            (stopped.ok() ? service.status() : stopped).ToString());
  }
  if (service.servable_sequence() != total) {
    r->Fail("servable_sequence " + std::to_string(service.servable_sequence()) +
            " != accepted " + std::to_string(total));
  }
  if (reads_failed > 0) r->Fail(std::to_string(reads_failed) + " reads failed");
  VerifyPageRank(service, store, r);

  // Pool the window.
  for (size_t i = 0; i < num_events; ++i) {
    if (base + ep.event_due[i] >= window_start) ++p->events;
  }
  for (uint64_t q = 1; q <= accepted.load(); ++q) {
    if (due_by_seq[q] >= window_start) p->fresh_us.push_back(fresh_us[q]);
  }
  auto append = [](std::vector<double>* to, const std::vector<double>& from) {
    to->insert(to->end(), from.begin(), from.end());
  };
  append(&p->read_us, read_us);
  append(&p->read_queue_us, read_queue_us);
  append(&p->read_call_us, read_call_us);
  append(&p->enqueue_us, enqueue_us);
  append(&p->late_us, producer_pacer.late_us());
  append(&p->late_us, reader_pacer.late_us());
  p->reads_failed += reads_failed;
  p->repins += repins;
  p->max_depth = std::max(p->max_depth, stats1.queue.max_depth);
  p->queue_grew =
      p->queue_grew ||
      (!burst && QueueGrows(depth, ServiceOptions().batch.max_events));
  // The service's own CPU: the process minus the generator threads.
  p->host.cpu_ns += (self1.cpu_ns - self0.cpu_ns) - producer_usage.cpu_ns -
                    reader_usage.cpu_ns - watcher_usage.cpu_ns;
  p->host.ctxsw += (self1.ctxsw - self0.ctxsw) - producer_usage.ctxsw -
                   reader_usage.ctxsw - watcher_usage.ctxsw;
  p->wall_ms += static_cast<double>(drained - window_start) / 1e6;
  p->apply.AddBetween(stats0.stage_apply, stats1.stage_apply);
  p->solve.AddBetween(stats0.stage_solve, stats1.stage_solve);
  p->estimate.AddBetween(stats0.stage_estimate, stats1.stage_estimate);
  p->export_.AddBetween(stats0.stage_export, stats1.stage_export);
  p->publish.AddBetween(stats0.stage_publish, stats1.stage_publish);
  p->structural += static_cast<double>(
      (stats1.edge_adds - stats0.edge_adds) +
      (stats1.edge_removes - stats0.edge_removes));
  for (size_t i = log0; i < log.size(); ++i) {
    const IngestGenerationInfo& g = log[i];
    if (g.num_events == 0) continue;
    p->gens += 1;
    p->gen_events += static_cast<double>(g.num_events);
    p->delta += static_cast<double>(g.delta_added + g.delta_removed);
    p->sweeps += g.rank_iterations;
    p->updates += static_cast<double>(g.rank_node_updates);
    p->swept += static_cast<double>(g.rank_iterations) * g.num_pages;
  }
}

// Per-layer rows over the pooled windows, measured from outside:
// Stats() deltas, the generation log, and the generator threads' own
// spans.
void AddLayerRows(Pooled* p, WorkloadResult* r) {
  const double fresh_mean_ms = Mean(p->fresh_us) / 1e3;
  const double per_gen = std::max(1.0, p->gens);
  const double wait_ms = fresh_mean_ms - p->apply.mean() - p->solve.mean() -
                         p->estimate.mean() - p->export_.mean() -
                         p->publish.mean();
  uint64_t blocked = 0;
  for (double us : p->enqueue_us) blocked += us > 1000.0 ? 1 : 0;

  r->Add("serve.engine.topk_us.p50", Percentile(&p->read_call_us, 0.50), "us");
  r->Add("serve.engine.topk_us.p99", Percentile(&p->read_call_us, 0.99), "us");
  r->Add("serve.store.repins", static_cast<double>(p->repins), "count");
  r->Add("serve.export_ms_mean", p->export_.mean(), "ms");
  r->Add("serve.publish_ms_mean", p->publish.mean(), "ms");
  r->Add("rank.solve_ms_mean", p->solve.mean(), "ms");
  r->Add("rank.sweeps_per_gen", p->sweeps / per_gen, "count");
  r->Add("rank.ms_per_sweep",
         p->sweeps > 0 ? p->solve.sum_ms / p->sweeps : 0.0, "ms");
  r->Add("rank.active_frac", p->swept > 0 ? p->updates / p->swept : 0.0,
         "ratio");
  r->Add("graph.apply_ms_mean", p->apply.mean(), "ms");
  r->Add("graph.delta_edges_per_gen", p->delta / per_gen, "count");
  r->Add("core.estimate_ms_mean", p->estimate.mean(), "ms");
  r->Add("ingest.enqueue_us.p99", Percentile(&p->enqueue_us, 0.99), "us");
  r->Add("ingest.enqueue_blocked", static_cast<double>(blocked), "count");
  r->Add("ingest.queue_max_depth", static_cast<double>(p->max_depth), "count");
  r->Add("ingest.events_per_gen", p->gen_events / per_gen, "count");
  r->Add("ingest.coalesce_ratio",
         p->structural > 0 ? p->delta / p->structural : 0.0, "ratio");
  r->Add("ingest.generations", p->gens, "count");
  r->Add("ingest.wait_ms_mean", wait_ms, "ms");
  r->Add("ingest.consumer_busy_frac",
         (p->apply.sum_ms + p->solve.sum_ms) / p->wall_ms, "ratio");
  r->Add("ingest.exporter_busy_frac",
         (p->estimate.sum_ms + p->export_.sum_ms + p->publish.sum_ms) /
             p->wall_ms,
         "ratio");
  // Shares of the mean freshness latency; with the wait they sum to 1.
  r->Add("ingest.wait_frac", wait_ms / fresh_mean_ms, "ratio");
  r->Add("graph.apply_frac", p->apply.mean() / fresh_mean_ms, "ratio");
  r->Add("rank.solve_frac", p->solve.mean() / fresh_mean_ms, "ratio");
  r->Add("core.estimate_frac", p->estimate.mean() / fresh_mean_ms, "ratio");
  r->Add("serve.export_frac", p->export_.mean() / fresh_mean_ms, "ratio");
  r->Add("serve.publish_frac", p->publish.mean() / fresh_mean_ms, "ratio");
  r->Add("host.ctxsw_per_op",
         static_cast<double>(p->host.ctxsw) /
             std::max<double>(1.0, static_cast<double>(p->fresh_us.size())),
         "count");
  r->Add("bench.queue_us.p99", Percentile(&p->read_queue_us, 0.99), "us");
  r->Add("setup.ingest_start_s", Median(p->setup_s), "s");
}

}  // namespace

WorkloadResult RunIngestWorkload(const RunConfig& config, bool burst) {
  WorkloadResult r;
  r.name = burst ? "ingest_burst" : "ingest_steady";
  const IngestInputs in = MakeInputs(config, burst);
  Lanes lanes;
  if (config.tracer != nullptr) {
    lanes.main = config.tracer->NewLane("main");
    lanes.producer = config.tracer->NewLane("producer");
    lanes.reader = config.tracer->NewLane("reader");
    lanes.watcher = config.tracer->NewLane("watcher");
  }
  Pooled p;
  double host_warmup_s = 0.0;
  for (const EpisodeInputs& ep : in.episodes) {
    host_warmup_s += WarmUpHost(kWarmUpHostMaxS);
    RunEpisode(in, ep, burst, lanes, &p, &r);
    if (!r.correct) return r;
  }

  uint64_t events_failed = p.events - p.fresh_us.size();  // rejected pushes
  for (double us : p.fresh_us) events_failed += us == kFailed ? 1 : 0;
  r.attempted = p.events + p.read_us.size();
  r.failed = events_failed + p.reads_failed;
  const double samples = static_cast<double>(p.fresh_us.size());

  r.Add("setup_s", Median(p.setup_s), "s");
  r.Add("rss_mb", p.rss_mb, "MiB");
  r.Add("lat_p50_us", Percentile(&p.fresh_us, 0.50), "us");
  r.Add("lat_p90_us", Percentile(&p.fresh_us, 0.90), "us");
  r.Add("cpu_us_per_op",
        static_cast<double>(p.host.cpu_ns) / 1e3 / std::max(1.0, samples),
        "us");
  r.Add("lat_p99_us", Percentile(&p.fresh_us, 0.99), "us");
  r.Add("read_p50_us", Percentile(&p.read_us, 0.50), "us");
  r.Add("read_p99_us", Percentile(&p.read_us, 0.99), "us");
  r.Add("fail_frac",
        static_cast<double>(r.failed) / static_cast<double>(r.attempted),
        "ratio");
  r.Add("bench.samples", samples, "count");
  r.Add("bench.host_warmup_s", host_warmup_s, "s");
  const double late_p99 = Percentile(&p.late_us, 0.99);
  r.Add("bench.gen_late_p99_us", late_p99, "us");
  if (late_p99 > kMaxGeneratorLateUs) {
    r.invalid.push_back("generator lateness p99 " + std::to_string(late_p99) +
                        " us over " + std::to_string(kMaxGeneratorLateUs));
  }
  if (p.queue_grew) {
    r.invalid.push_back("queue depth grew through a window at R_e");
  }
  if (config.tracer != nullptr) AddLayerRows(&p, &r);
  return r;
}

}  // namespace qrank_e2e

// qrank_ingest: drive and inspect the continuous-ingest pipeline
// (src/ingest/) from the command line.
//
// Usage:
//   qrank_ingest drive   [--sites=N] [--pages-per-site=N] [--events=N]
//                        [--producers=N] [--batch-events=N]
//                        [--batch-age-ms=X] [--capacity=N] [--reject]
//                        [--seed=N] [--out=PATH] [--serial]
//                        [--export-threads=N]
//                        [--partition=node|edge] [--kernel=NAME]
//   qrank_ingest inspect [same flags]
//
// The solver knobs are the shared set from rank/solver_flags.h and
// configure the per-batch delta solves. --order is deliberately NOT
// accepted here: this tool's site_of callback derives each page's site
// from id arithmetic, so a relabeling would silently reassign pages to
// sites.
//
// Both subcommands run the same experiment: seed a site-clustered web,
// start the IngestService against a SnapshotStore, race N producer
// threads feeding a random edge-add / edge-remove / visit mix through
// the bounded queue, wait until everything accepted is servable, and
// stop.
//
// `drive` prints the operator view: queue counters, batch/generation
// counts, the update-to-servable latency distribution (p50/p90/p99/
// max) — the bounded-staleness numbers bench_perf_ingest gates in CI —
// and the per-stage apply/solve/estimate/export/publish breakdown from
// the pipelined service, so a latency regression points at its stage.
// --serial runs the pre-pipeline inline export path for comparison;
// --export-threads caps the parallel bundle export (0 = all cores).
// `inspect` prints the audit view: one TSV row per published generation
// (generation, sequence range, events, net delta, pages, solver work,
// worst in-batch staleness) — the provenance trail behind the
// no-lost-updates contract. --out writes the final published bundle
// image for `qrank_serve inspect/query`.
//
// Exit status: 0 = success, 1 = pipeline or audit failure, 2 = usage.

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "audit/audit.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/status.h"
#include "graph/csr_graph.h"
#include "graph/generators.h"
#include "ingest/ingest_service.h"
#include "rank/solver_flags.h"
#include "serve/snapshot_store.h"

namespace qrank {
namespace {

void PrintUsage(std::ostream& os) {
  os << "usage: qrank_ingest drive   [--sites=N] [--pages-per-site=N]\n"
        "                            [--events=N] [--producers=N]\n"
        "                            [--batch-events=N] [--batch-age-ms=X]\n"
        "                            [--capacity=N] [--reject] [--seed=N]\n"
        "                            [--out=PATH] [--serial]\n"
        "                            [--export-threads=N]\n"
        "                            [--partition=node|edge]\n"
        "                            [--kernel=scalar|simd]\n"
        "       qrank_ingest inspect [same flags]\n"
        "(no --order here: site_of derives sites from id arithmetic)\n";
}

struct DriveConfig {
  SiteId sites = 32;
  NodeId pages_per_site = 50;
  int64_t events = 20000;
  int64_t producers = 2;
  size_t batch_events = 512;
  double batch_age_ms = 10.0;
  size_t capacity = 1 << 14;
  bool reject = false;
  bool serial = false;       // true = pre-pipeline inline export path
  int export_threads = 0;    // 0 = all cores
  uint64_t seed = 1;
  std::string out;
  DeltaPageRankOptions rank = DefaultIngestRankOptions();
};

struct DriveOutcome {
  IngestStats stats;
  std::vector<IngestGenerationInfo> log;
  std::vector<uint8_t> image;
  uint64_t accepted = 0;
  uint64_t rejected = 0;
};

Result<DriveOutcome> RunDrive(const DriveConfig& cfg) {
  Rng seed_rng(cfg.seed);
  QRANK_ASSIGN_OR_RETURN(
      EdgeList seed_edges,
      GenerateSiteClustered(cfg.sites, cfg.pages_per_site, 8, 4, &seed_rng));
  QRANK_ASSIGN_OR_RETURN(CsrGraph seed_graph,
                         CsrGraph::FromEdgeList(seed_edges));

  SnapshotStore store;
  IngestOptions options;
  options.queue.capacity = cfg.capacity;
  options.queue.backpressure = cfg.reject ? BackpressurePolicy::kReject
                                          : BackpressurePolicy::kBlock;
  options.batch.max_events = cfg.batch_events;
  options.batch.max_age = std::chrono::nanoseconds(
      static_cast<int64_t>(cfg.batch_age_ms * 1e6));
  options.num_sites = cfg.sites;
  const NodeId pages_per_site = cfg.pages_per_site;
  const SiteId sites = cfg.sites;
  options.site_of = [pages_per_site, sites](NodeId page) {
    return static_cast<SiteId>((page / pages_per_site) % sites);
  };
  options.rank = cfg.rank;
  options.pipelined = !cfg.serial;
  options.export_parallel.num_threads = cfg.export_threads;
  options.keep_last_image = !cfg.out.empty();
  QRANK_ASSIGN_OR_RETURN(
      std::unique_ptr<IngestService> service,
      IngestService::Create(std::move(seed_graph), &store,
                            std::move(options)));
  QRANK_RETURN_NOT_OK(service->Start());

  const NodeId id_space =
      static_cast<NodeId>(cfg.sites) * cfg.pages_per_site + 64;
  std::vector<uint64_t> rejected_per(cfg.producers, 0);
  std::vector<std::thread> producers;
  const int64_t per_producer = cfg.events / cfg.producers;
  for (int64_t p = 0; p < cfg.producers; ++p) {
    producers.emplace_back([&, p] {
      Rng rng(cfg.seed * 7919 + static_cast<uint64_t>(p) + 1);
      for (int64_t i = 0; i < per_producer; ++i) {
        const NodeId u = static_cast<NodeId>(rng.NextUint64() % id_space);
        const NodeId v = static_cast<NodeId>(rng.NextUint64() % id_space);
        const uint64_t roll = rng.NextUint64() % 100;
        Status st;
        if (roll < 50) {
          st = service->EnqueueEdgeAdd(u, v);
        } else if (roll < 75) {
          st = service->EnqueueEdgeRemove(u, v);
        } else {
          st = service->EnqueueVisit(u);
        }
        if (!st.ok()) ++rejected_per[p];  // kReject load shedding
      }
    });
  }
  for (std::thread& t : producers) t.join();

  DriveOutcome out;
  out.accepted = service->queue().Stats().enqueued;
  if (out.accepted > 0 &&
      !service->WaitServable(out.accepted, std::chrono::seconds(300))) {
    return Status::Internal("timed out waiting for servability");
  }
  QRANK_RETURN_NOT_OK(service->Stop());
  for (uint64_t r : rejected_per) out.rejected += r;
  out.stats = service->Stats();
  out.log = service->GenerationLog();
  out.image = service->LastImage();
  return out;
}

Result<DriveConfig> ConfigFromFlags(FlagParser& flags) {
  DriveConfig cfg;
  cfg.sites = static_cast<SiteId>(flags.GetInt("sites", 32));
  cfg.pages_per_site =
      static_cast<NodeId>(flags.GetInt("pages-per-site", 50));
  cfg.events = flags.GetInt("events", 20000);
  cfg.producers = flags.GetInt("producers", 2);
  cfg.batch_events = static_cast<size_t>(flags.GetInt("batch-events", 512));
  cfg.batch_age_ms = flags.GetDouble("batch-age-ms", 10.0);
  cfg.capacity = static_cast<size_t>(flags.GetInt("capacity", 1 << 14));
  cfg.reject = flags.GetBool("reject", false);
  cfg.serial = flags.GetBool("serial", false);
  cfg.export_threads =
      static_cast<int>(flags.GetInt("export-threads", 0));
  cfg.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  cfg.out = flags.GetString("out", "");
  QRANK_RETURN_NOT_OK(ApplySolverFlags(flags, &cfg.rank.base));
  QRANK_RETURN_NOT_OK(flags.status());
  if (cfg.sites == 0 || cfg.pages_per_site == 0 || cfg.events <= 0 ||
      cfg.producers <= 0) {
    return Status::InvalidArgument("sites/pages/events/producers must be > 0");
  }
  return cfg;
}

int Finish(const DriveConfig& cfg, const DriveOutcome& outcome) {
  if (!cfg.out.empty()) {
    std::ofstream f(cfg.out, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char*>(outcome.image.data()),
            static_cast<std::streamsize>(outcome.image.size()));
    if (!f) {
      std::cerr << "qrank_ingest: cannot write " << cfg.out << "\n";
      return 1;
    }
    std::printf("wrote final bundle image to %s (%zu bytes)\n",
                cfg.out.c_str(), outcome.image.size());
  }
  // Exit-status honesty: the run only counts as clean when the queue
  // ledger conserves and every accepted event is servable.
  const UpdateQueueStats& q = outcome.stats.queue;
  const AuditReport audit =
      AuditIngestQueue(q.capacity, q.depth, q.enqueued, q.dequeued,
                       q.rejected);
  if (!audit.ok() || outcome.stats.servable_sequence != outcome.accepted) {
    std::cerr << "qrank_ingest: pipeline audit failed\n"
              << audit.ToString();
    return 1;
  }
  return 0;
}

int CmdDrive(const DriveConfig& cfg, const DriveOutcome& outcome) {
  const IngestStats& s = outcome.stats;
  std::printf("accepted        %" PRIu64 " events (%" PRIu64 " rejected)\n",
              outcome.accepted, outcome.rejected);
  std::printf("processed       %" PRIu64 " (adds %" PRIu64 ", removes %"
              PRIu64 ", visits %" PRIu64 ")\n",
              s.events_processed, s.edge_adds, s.edge_removes, s.visits);
  std::printf("batches         %" PRIu64 " -> %" PRIu64
              " generations (net delta edges %" PRIu64 ")\n",
              s.batches, s.generations, s.delta_edges_applied);
  std::printf("flushes         full %" PRIu64 ", age %" PRIu64
              ", quiet %" PRIu64 ", drain %" PRIu64 "\n",
              s.flushes_full, s.flushes_age, s.flushes_quiet,
              s.flushes_drain);
  std::printf("solver          %" PRIu64 " pushes, %" PRIu64
              " edge reads\n",
              s.rank_node_updates, s.rank_edge_reads);
  std::printf("queue           depth %" PRIu64 "/%" PRIu64
              " (max %" PRIu64 "), enqueued %" PRIu64 ", dequeued %" PRIu64
              "\n",
              s.queue.depth, s.queue.capacity, s.queue.max_depth,
              s.queue.enqueued, s.queue.dequeued);
  std::printf("update->servable  n=%" PRIu64
              "  p50 %.3f ms  p90 %.3f ms  p99 %.3f ms  max %.3f ms\n",
              s.latency_count, s.latency_p50_ms, s.latency_p90_ms,
              s.latency_p99_ms, s.latency_max_ms);
  // Per-stage breakdown: where each generation's latency went. With the
  // pipelined service, apply+solve run on the consumer thread while
  // estimate/export/publish run on the exporter — the two groups
  // overlap across consecutive batches, so the stage sums exceed the
  // end-to-end number by design.
  const struct {
    const char* name;
    const IngestStageStats& st;
  } stages[] = {
      {"apply", s.stage_apply},       {"solve", s.stage_solve},
      {"estimate", s.stage_estimate}, {"export", s.stage_export},
      {"publish", s.stage_publish},
  };
  for (const auto& stage : stages) {
    std::printf("  stage %-8s n=%" PRIu64
                "  p50 %.3f ms  p90 %.3f ms  p99 %.3f ms  max %.3f ms\n",
                stage.name, stage.st.count, stage.st.p50_ms,
                stage.st.p90_ms, stage.st.p99_ms, stage.st.max_ms);
  }
  return Finish(cfg, outcome);
}

int CmdInspect(const DriveConfig& cfg, const DriveOutcome& outcome) {
  std::printf(
      "generation\tfirst_seq\tlast_seq\tevents\tadded\tremoved\tpages\t"
      "iterations\tnode_updates\tedge_reads\tmax_staleness_ms\n");
  for (const IngestGenerationInfo& g : outcome.log) {
    std::printf("%" PRIu64 "\t%" PRIu64 "\t%" PRIu64 "\t%" PRIu64 "\t%"
                PRIu64 "\t%" PRIu64 "\t%u\t%u\t%" PRIu64 "\t%" PRIu64
                "\t%.3f\n",
                g.generation, g.first_sequence, g.last_sequence,
                g.num_events, g.delta_added, g.delta_removed, g.num_pages,
                g.rank_iterations, g.rank_node_updates, g.rank_edge_reads,
                g.max_update_to_servable_ms);
  }
  return Finish(cfg, outcome);
}

int Run(int argc, const char* const* argv) {
  if (argc < 2) {
    PrintUsage(std::cerr);
    return 2;
  }
  const std::string command = argv[1];
  FlagParser flags(argc - 1, argv + 1);
  if (!flags.positional().empty() ||
      (command != "drive" && command != "inspect")) {
    PrintUsage(std::cerr);
    return 2;
  }
  Result<DriveConfig> cfg = ConfigFromFlags(flags);
  if (!cfg.ok()) {
    std::cerr << "qrank_ingest: " << cfg.status().ToString() << "\n";
    PrintUsage(std::cerr);
    return 2;
  }
  const std::vector<std::string> unused = flags.UnusedFlags();
  if (!unused.empty()) {
    std::cerr << "qrank_ingest: unknown flag --" << unused.front() << "\n";
    PrintUsage(std::cerr);
    return 2;
  }
  Result<DriveOutcome> outcome = RunDrive(cfg.value());
  if (!outcome.ok()) {
    std::cerr << "qrank_ingest: " << outcome.status().ToString() << "\n";
    return 1;
  }
  return command == "drive" ? CmdDrive(cfg.value(), outcome.value())
                            : CmdInspect(cfg.value(), outcome.value());
}

}  // namespace
}  // namespace qrank

int main(int argc, char** argv) { return qrank::Run(argc, argv); }

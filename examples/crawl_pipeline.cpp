// File-based crawl pipeline: what a downstream user runs on their own
// crawl snapshots.
//
//   1. (Stand-in for a crawler) simulate a web and WRITE four snapshot
//      edge-list files, as a crawler would produce.
//   2. READ the snapshot files back, compute PageRank per snapshot over
//      the common pages, estimate page quality (Equation 1).
//   3. Write a CSV report (page, trend, PR(t1), PR(t3), quality) and
//      print the top pages by each metric.
//
// Usage:  ./build/examples/crawl_pipeline [output_dir] [--incremental]
//             [--order=NAME] [--partition=node|edge] [--kernel=NAME]
// (default output dir: /tmp/qrank_crawl)
//
// --incremental switches the per-snapshot PageRank stage to the delta
// pipeline (patched CSR + warm-started frozen-set solves); results match
// the from-scratch mode within the engine tolerance. The solver knobs
// are the shared set from rank/solver_flags.h: --order relabels every
// snapshot for cache locality (safe here — page ids are pure labels and
// the report is emitted in original ids), and --partition / --kernel
// select the sweep configuration.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common/flags.h"
#include "common/table_writer.h"
#include "rank/solver_flags.h"
#include "core/quality_estimator.h"
#include "core/snapshot_series.h"
#include "graph/graph_io.h"
#include "rank/rank_vector.h"
#include "sim/web_simulator.h"

namespace {

const double kSnapshotTimes[] = {16.0, 20.0, 24.0};

const char* TrendName(qrank::PageTrend t) {
  switch (t) {
    case qrank::PageTrend::kRising:
      return "rising";
    case qrank::PageTrend::kFalling:
      return "falling";
    case qrank::PageTrend::kOscillating:
      return "oscillating";
    case qrank::PageTrend::kStable:
      return "stable";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  qrank::FlagParser flags(argc, argv);
  const bool incremental = flags.GetBool("incremental", false);
  std::string dir = flags.positional().empty() ? "/tmp/qrank_crawl"
                                               : flags.positional()[0];
  qrank::SeriesComputeOptions series_options;
  const qrank::Status solver_st =
      qrank::ApplySolverFlags(flags, &series_options.pagerank);
  const qrank::Result<qrank::NodeOrdering> ordering =
      qrank::OrderingFlag(flags);
  if (!solver_st.ok() || !ordering.ok() || !flags.status().ok() ||
      !flags.UnusedFlags().empty()) {
    if (!solver_st.ok()) {
      std::fprintf(stderr, "%s\n", solver_st.ToString().c_str());
    }
    if (!ordering.ok()) {
      std::fprintf(stderr, "%s\n", ordering.status().ToString().c_str());
    }
    std::fprintf(stderr,
                 "usage: crawl_pipeline [output_dir] [--incremental]\n"
                 "           %s\n           %s\n",
                 qrank::kOrderFlagUsage, qrank::kSolverFlagsUsage);
    return EXIT_FAILURE;
  }
  series_options.ordering = ordering.value();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return EXIT_FAILURE;
  }

  // --- Stage 1: "crawl" (simulate) and persist snapshots.
  qrank::WebSimulatorOptions sim_options;
  sim_options.num_users = 800;
  sim_options.seed = 1;
  sim_options.page_birth_rate = 20.0;
  sim_options.visit_rate_factor = 2.0;
  auto sim = qrank::WebSimulator::Create(sim_options);
  if (!sim.ok()) return EXIT_FAILURE;

  std::printf("stage 1: crawling (simulated) -> %s\n", dir.c_str());
  int snap_index = 0;
  for (double t : kSnapshotTimes) {
    if (!sim->AdvanceTo(t).ok()) return EXIT_FAILURE;
    std::string path = dir + "/snapshot_" + std::to_string(snap_index++) +
                       ".edges";
    qrank::Status st =
        qrank::WriteEdgeListText(sim->graph().EdgesAt(sim->now()), path);
    if (!st.ok()) {
      std::fprintf(stderr, "write failed: %s\n", st.ToString().c_str());
      return EXIT_FAILURE;
    }
    std::printf("  wrote %s (t=%.0f)\n", path.c_str(), t);
  }

  // --- Stage 2: load snapshots and estimate quality.
  std::printf("\nstage 2: loading snapshots and estimating quality\n");
  qrank::SnapshotSeries series;
  for (int i = 0; i < 3; ++i) {
    std::string path = dir + "/snapshot_" + std::to_string(i) + ".edges";
    auto edges = qrank::ReadEdgeListText(path);
    if (!edges.ok()) {
      std::fprintf(stderr, "read failed: %s\n",
                   edges.status().ToString().c_str());
      return EXIT_FAILURE;
    }
    auto graph = qrank::CsrGraph::FromEdgeList(edges.value());
    if (!graph.ok() ||
        !series.AddSnapshot(kSnapshotTimes[i], std::move(graph).value())
             .ok()) {
      return EXIT_FAILURE;
    }
  }
  series_options.pagerank.scale = qrank::ScaleConvention::kTotalMassN;
  series_options.mode = incremental ? qrank::SeriesMode::kIncremental
                                    : qrank::SeriesMode::kScratch;
  std::printf("  PageRank mode: %s\n",
              incremental ? "incremental (delta CSR + warm start)"
                          : "from scratch");
  if (!series.ComputePageRanks(series_options).ok()) return EXIT_FAILURE;
  auto estimate = qrank::EstimateQuality(series, 3);
  if (!estimate.ok()) return EXIT_FAILURE;

  const qrank::NodeId common = series.CommonNodeCount();
  std::printf("  %u common pages across %zu snapshots\n", common,
              series.num_snapshots());

  // --- Stage 3: report.
  qrank::TableWriter csv({"page", "trend", "pagerank_t1", "pagerank_t3",
                          "quality_estimate"});
  for (qrank::NodeId p = 0; p < common; ++p) {
    csv.AddRow({std::to_string(p), TrendName(estimate->trend[p]),
                qrank::TableWriter::FormatDouble(series.pagerank(0)[p], 6),
                qrank::TableWriter::FormatDouble(series.pagerank(2)[p], 6),
                qrank::TableWriter::FormatDouble(estimate->quality[p], 6)});
  }
  std::string report = dir + "/quality_report.csv";
  if (!csv.WriteCsvFile(report).ok()) return EXIT_FAILURE;
  std::printf("\nstage 3: wrote %s (%u rows)\n", report.c_str(), common);

  auto top_q = qrank::TopK(estimate->quality, 5);
  auto top_pr = qrank::TopK(series.pagerank(2), 5);
  std::printf("\ntop 5 by quality estimate: ");
  for (qrank::NodeId p : top_q) std::printf("%u ", p);
  std::printf("\ntop 5 by current PageRank: ");
  for (qrank::NodeId p : top_pr) std::printf("%u ", p);
  std::printf("\n");
  return EXIT_SUCCESS;
}

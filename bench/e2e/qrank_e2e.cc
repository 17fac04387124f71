// qrank_e2e: the repository's end-to-end benchmark of the query path
// (client -> coordinator -> qrank_worker processes -> merge) and the
// freshness path (edge event -> ingest -> rank -> estimate -> export ->
// servable TopK). See README.md in this directory for every workload
// and metric.
//
// Usage:
//   qrank_e2e [--workload=all|query_global|query_routed|ingest_steady|
//              ingest_burst] [--seed=N] [--seconds=S] [--trace=DIR]
//             [--smoke] [--json=PATH] [--work-dir=DIR]
//
// Prints one `workload metric value unit` line per metric and writes
// the same numbers, stamped with the host, to --json (BENCH_e2e.json).
// --trace=DIR repeats each workload with the same seed under the span
// tracer, adds the per-layer metrics and writes DIR/trace_<workload>.json
// (Chrome trace-event format; open in Perfetto).
//
// Exit status: 0 = every output verified and the run valid; 1 = a
// verification or set-up failure; 2 = usage; 4 = the run is invalid
// (generator ran late, queue grew at the nominal rate, or too few
// cores) — its numbers must not be used.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/simd.h"
#include "e2e.h"

namespace qrank_e2e {
namespace {

constexpr const char* kWorkloads[] = {"query_global", "query_routed",
                                      "ingest_steady", "ingest_burst"};
constexpr size_t kSpansPerLane = 1 << 18;

struct Row {
  const char* name;
  const char* unit;
};
// Per-layer rows that only one path produces. A traced run reports
// both sets; the layers of the path a workload does not exercise did
// no work in it, so their counts and shares read 0.
constexpr Row kQueryPathRows[] = {
    {"dist.coord.self_frac", "ratio"},
    {"dist.rpc.tail_frac", "ratio"},
    {"dist.wire.codec_frac", "ratio"},
    {"serve.engine.query_frac", "ratio"},
    {"dist.coord.cpu_frac", "ratio"},
    {"dist.coord.ctxsw_per_query", "count"},
    {"dist.worker.ctxsw_per_query", "count"},
    {"dist.coord.shards_per_query", "count"},
    {"dist.coord.answered_ratio", "ratio"},
    {"dist.coord.hedges", "count"},
    {"dist.coord.degraded", "count"},
    {"setup.pagerank_frac", "ratio"},
    {"setup.bundle_frac", "ratio"},
    {"setup.split_frac", "ratio"},
    {"setup.spawn_frac", "ratio"},
    {"setup.connect_frac", "ratio"},
};
constexpr Row kIngestPathRows[] = {
    {"ingest.wait_frac", "ratio"},
    {"graph.apply_frac", "ratio"},
    {"rank.solve_frac", "ratio"},
    {"core.estimate_frac", "ratio"},
    {"serve.export_frac", "ratio"},
    {"serve.publish_frac", "ratio"},
    {"rank.sweeps_per_gen", "count"},
    {"rank.active_frac", "ratio"},
    {"graph.delta_edges_per_gen", "count"},
    {"ingest.events_per_gen", "count"},
    {"ingest.coalesce_ratio", "ratio"},
    {"ingest.generations", "count"},
    {"ingest.queue_max_depth", "count"},
    {"ingest.enqueue_blocked", "count"},
    {"ingest.consumer_busy_frac", "ratio"},
    {"ingest.exporter_busy_frac", "ratio"},
    {"serve.store.repins", "count"},
};

WorkloadResult RunOne(const std::string& name, const RunConfig& config) {
  if (name == "query_global") return RunQueryWorkload(config, false);
  if (name == "query_routed") return RunQueryWorkload(config, true);
  if (name == "ingest_steady") return RunIngestWorkload(config, false);
  return RunIngestWorkload(config, true);
}

bool IsQuery(const std::string& name) { return name.rfind("query_", 0) == 0; }

// Untraced pass for the end-to-end rows; with a trace directory, a
// second pass on the same inputs adds the per-layer rows and the trace.
WorkloadResult Measure(const std::string& name, RunConfig config,
                       const std::string& trace_dir) {
  WorkloadResult r = RunOne(name, config);
  const int cores = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  const int generators =
      IsQuery(name) ? kQueryGeneratorThreads : kIngestGeneratorThreads;
  if (cores < generators + 1) {
    r.invalid.push_back(std::to_string(cores) + " cores online for " +
                        std::to_string(generators) + " generator threads");
  }
  if (trace_dir.empty() || !r.correct) return r;

  Tracer tracer(kSpansPerLane);
  config.tracer = &tracer;
  const WorkloadResult traced = RunOne(name, config);
  for (const std::string& p : traced.problems) r.Fail("traced run: " + p);
  for (const std::string& p : traced.invalid) {
    r.invalid.push_back("traced run: " + p);
  }
  for (const Metric& m : traced.metrics) {
    if (r.Find(m.name) == nullptr) r.metrics.push_back(m);
  }
  for (const Row& row : IsQuery(name) ? std::span<const Row>(kIngestPathRows)
                                      : std::span<const Row>(kQueryPathRows)) {
    r.Add(row.name, 0.0, row.unit);
  }
  const Metric* base = r.Find("lat_p50_us");
  const Metric* with = traced.Find("lat_p50_us");
  if (base != nullptr && with != nullptr && base->value > 0.0) {
    r.Add("bench.trace_overhead_frac", with->value / base->value - 1.0,
          "ratio");
  }
  r.Add("bench.trace_dropped_spans", static_cast<double>(tracer.dropped()),
        "count");
  const std::string path = trace_dir + "/trace_" + name + ".json";
  const qrank::Status st = tracer.WriteChromeJson(path);
  if (!st.ok()) r.Fail(st.ToString());
  return r;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "";
}

bool WriteJson(const std::string& path, const RunConfig& config, bool traced,
               const std::vector<WorkloadResult>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\n  \"suite\": \"e2e\",\n  \"seed\": %llu,\n  \"seconds\": "
               "%.17g,\n  \"traced\": %s,\n  \"host\": {\"cpu_model\": %s, "
               "\"nproc\": %ld, \"simd_level\": %s, \"simd_features\": %s},\n"
               "  \"workloads\": [",
               static_cast<unsigned long long>(config.seed), config.seconds,
               traced ? "true" : "false", JsonString(CpuModel()).c_str(),
               sysconf(_SC_NPROCESSORS_ONLN),
               JsonString(qrank::SimdLevelName(qrank::DetectSimdLevel()))
                   .c_str(),
               JsonString(qrank::SimdFeatureString()).c_str());
  for (size_t i = 0; i < results.size(); ++i) {
    const WorkloadResult& r = results[i];
    std::fprintf(f,
                 "%s\n    {\"name\": %s, \"correct\": %s, \"valid\": %s, "
                 "\"attempted\": %llu, \"failed\": %llu, \"problems\": [",
                 i == 0 ? "" : ",", JsonString(r.name).c_str(),
                 r.correct ? "true" : "false",
                 r.invalid.empty() ? "true" : "false",
                 static_cast<unsigned long long>(r.attempted),
                 static_cast<unsigned long long>(r.failed));
    std::vector<std::string> problems = r.problems;
    problems.insert(problems.end(), r.invalid.begin(), r.invalid.end());
    for (size_t p = 0; p < problems.size(); ++p) {
      std::fprintf(f, "%s%s", p == 0 ? "" : ", ",
                   JsonString(problems[p]).c_str());
    }
    std::fprintf(f, "],\n     \"metrics\": {");
    for (size_t m = 0; m < r.metrics.size(); ++m) {
      // A percentile that lands on failed operations is infinite.
      char value[32];
      std::snprintf(value, sizeof(value), "%.17g", r.metrics[m].value);
      std::fprintf(f, "%s\n       %s: {\"value\": %s, \"unit\": %s}",
                   m == 0 ? "" : ",", JsonString(r.metrics[m].name).c_str(),
                   std::isfinite(r.metrics[m].value) ? value : "Infinity",
                   JsonString(r.metrics[m].unit).c_str());
    }
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n  ]\n}\n");
  return std::fclose(f) == 0;
}

void PrintUsage() {
  std::cerr << "usage: qrank_e2e [--workload=all|query_global|query_routed|"
               "ingest_steady|ingest_burst]\n"
               "                 [--seed=N] [--seconds=S] [--trace=DIR] "
               "[--smoke]\n"
               "                 [--json=PATH] [--work-dir=DIR]\n";
}

int Run(int argc, const char* const* argv) {
  qrank::FlagParser flags(argc, argv);
  const std::string workload = flags.GetString("workload", "all");
  RunConfig config;
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  config.seconds = flags.GetDouble("seconds", 10.0);
  const bool smoke = flags.GetBool("smoke", false);
  const std::string trace_dir = flags.GetString("trace", "");
  const std::string json_path = flags.GetString("json", "BENCH_e2e.json");
  config.work_dir = flags.GetString("work-dir", ".");
  if (!flags.status().ok() || !flags.positional().empty() ||
      !flags.UnusedFlags().empty() || !(config.seconds > 0.0)) {
    PrintUsage();
    return 2;
  }
  if (smoke) {
    // About one second per timed phase; the same verification.
    config.seconds = 1.0;
    config.setups = 1;
  }
  std::vector<std::string> names;
  for (const char* w : kWorkloads) {
    if (workload == "all" || workload == w) names.push_back(w);
  }
  if (names.empty()) {
    PrintUsage();
    return 2;
  }

  std::vector<WorkloadResult> results;
  bool correct = true;
  bool valid = true;
  for (const std::string& name : names) {
    results.push_back(Measure(name, config, trace_dir));
    const WorkloadResult& r = results.back();
    for (const Metric& m : r.metrics) {
      std::printf("%s %s %.10g %s\n", r.name.c_str(), m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf("%s attempted %llu count\n%s failed %llu count\n",
                r.name.c_str(), static_cast<unsigned long long>(r.attempted),
                r.name.c_str(), static_cast<unsigned long long>(r.failed));
    for (const std::string& p : r.problems) {
      std::fprintf(stderr, "%s: VERIFY FAILED: %s\n", r.name.c_str(),
                   p.c_str());
    }
    for (const std::string& p : r.invalid) {
      std::fprintf(stderr, "%s: INVALID RUN: %s\n", r.name.c_str(), p.c_str());
    }
    std::fflush(stdout);
    correct = correct && r.correct;
    valid = valid && r.invalid.empty();
  }
  if (!WriteJson(json_path, config, !trace_dir.empty(), results)) {
    std::fprintf(stderr, "qrank_e2e: cannot write %s\n", json_path.c_str());
    return 1;
  }
  if (!correct) return 1;
  return valid ? 0 : 4;
}

}  // namespace
}  // namespace qrank_e2e

int main(int argc, char** argv) { return qrank_e2e::Run(argc, argv); }

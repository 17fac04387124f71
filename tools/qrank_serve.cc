// qrank_serve: build, inspect, query and micro-bench score bundles
// (src/serve/) from the command line.
//
// Usage:
//   qrank_serve build --quality=FILE --pagerank=FILE --out=PATH
//                     [--site-ids=FILE] [--num-sites=N]
//                     [--expected-mass=X] [--creator-tag=N]
//   qrank_serve inspect <bundle>
//   qrank_serve query <bundle> [--k=N] [--alpha=X] [--site=N]
//                     [--epsilon=X] [--seed=N] [--mmap=BOOL]
//   qrank_serve bench <bundle> [--queries=N] [--k=N] [--alpha=X]
//                     [--site=N] [--mmap=BOOL]
//   qrank_serve shard <bundle> --out-dir=DIR [--shards=N] [--mmap=BOOL]
//
// `build` reads text score files (one value per line, row order) and
// writes the serialized bundle. `inspect` prints the header and section
// table, then runs the serve.bundle.* audit family; a corrupt bundle
// exits 1. `query` prints one TSV row per result:
//   <rank> <TAB> <row> <TAB> <page_id> <TAB> <score> <TAB> <promoted>
// `bench` loops TopKOnBundle on one thread and reports QPS plus sampled
// p50/p99 latency (the full-churn suite lives in bench_perf_serve).
// `shard` partitions a bundle by site into per-shard bundles plus the
// shard map and sidecars the distributed tier (src/dist/) serves from.
// None of the shared solver flags (rank/solver_flags.h: --order,
// --partition, --kernel) apply here — this tool serves
// precomputed score bundles and never runs a PageRank solve; the
// binaries that do (crawl_pipeline, qrank_ingest, bench_perf_pagerank)
// all accept that set.
//
// Exit status: 0 = success, 1 = audit failure (inspect), 2 = usage or
// I/O error.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "audit/audit.h"
#include "common/flags.h"
#include "common/status.h"
#include "dist/shard_map.h"
#include "serve/query_engine.h"
#include "serve/score_bundle.h"
#include "serve/snapshot_store.h"

namespace qrank {
namespace {

void PrintUsage(std::ostream& os) {
  os << "usage: qrank_serve build --quality=FILE --pagerank=FILE --out=PATH\n"
        "                         [--site-ids=FILE] [--num-sites=N]\n"
        "                         [--expected-mass=X] [--creator-tag=N]\n"
        "       qrank_serve inspect <bundle>\n"
        "       qrank_serve query <bundle> [--k=N] [--alpha=X] [--site=N]\n"
        "                         [--epsilon=X] [--seed=N] [--mmap=BOOL]\n"
        "       qrank_serve bench <bundle> [--queries=N] [--k=N]\n"
        "                         [--alpha=X] [--site=N] [--mmap=BOOL]\n"
        "       qrank_serve shard <bundle> --out-dir=DIR [--shards=N]\n"
        "                         [--mmap=BOOL]\n";
}

Result<std::vector<double>> LoadDoubles(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  std::vector<double> values;
  std::string token;
  while (in >> token) {
    try {
      size_t used = 0;
      const double v = std::stod(token, &used);
      if (used != token.size()) {
        return Status::Corruption("malformed value '" + token + "' in " +
                                  path);
      }
      values.push_back(v);
    } catch (const std::exception&) {
      return Status::Corruption("malformed value '" + token + "' in " + path);
    }
  }
  return values;
}

Result<std::vector<SiteId>> LoadSiteIds(const std::string& path) {
  QRANK_ASSIGN_OR_RETURN(std::vector<double> raw, LoadDoubles(path));
  std::vector<SiteId> ids;
  ids.reserve(raw.size());
  for (double v : raw) {
    if (v < 0 || v != static_cast<double>(static_cast<SiteId>(v))) {
      return Status::Corruption("site id out of range in " + path);
    }
    ids.push_back(static_cast<SiteId>(v));
  }
  return ids;
}

int CmdBuild(FlagParser& flags) {
  const std::string quality_path = flags.GetString("quality", "");
  const std::string pagerank_path = flags.GetString("pagerank", "");
  const std::string site_ids_path = flags.GetString("site-ids", "");
  const std::string out_path = flags.GetString("out", "");
  ScoreBundleSource source;
  source.num_sites = static_cast<SiteId>(flags.GetInt("num-sites", 0));
  source.expected_mass = flags.GetDouble("expected-mass", 0.0);
  source.creator_tag =
      static_cast<uint32_t>(flags.GetInt("creator-tag", 0));
  if (!flags.status().ok() || quality_path.empty() || pagerank_path.empty() ||
      out_path.empty()) {
    PrintUsage(std::cerr);
    return 2;
  }
  auto fail = [](const std::string& what, const Status& st) {
    std::cerr << "qrank_serve: " << what << ": " << st.ToString() << "\n";
    return 2;
  };
  Result<std::vector<double>> quality = LoadDoubles(quality_path);
  if (!quality.ok()) return fail(quality_path, quality.status());
  Result<std::vector<double>> pagerank = LoadDoubles(pagerank_path);
  if (!pagerank.ok()) return fail(pagerank_path, pagerank.status());
  source.quality = std::move(quality).value();
  source.pagerank = std::move(pagerank).value();
  if (!site_ids_path.empty()) {
    Result<std::vector<SiteId>> site_ids = LoadSiteIds(site_ids_path);
    if (!site_ids.ok()) return fail(site_ids_path, site_ids.status());
    source.site_ids = std::move(site_ids).value();
  }
  Result<ScoreBundleWriter> writer = ScoreBundleWriter::Create(
      std::move(source));
  if (!writer.ok()) return fail("build", writer.status());
  const Status st = writer.value().WriteFile(out_path);
  if (!st.ok()) return fail(out_path, st);
  std::cout << out_path << ": " << writer.value().num_pages() << " pages, "
            << writer.value().num_sites() << " sites\n";
  return 0;
}

Result<LoadedBundle> OpenBundle(const std::string& path, bool prefer_mmap) {
  return LoadedBundle::Load(path, prefer_mmap);
}

int CmdInspect(FlagParser& flags, const std::string& path) {
  if (!flags.status().ok()) {
    PrintUsage(std::cerr);
    return 2;
  }
  // Inspect audits the raw image (mirrors `qrank_audit <bundle>`), so a
  // bundle the loader would reject still gets a structured verdict.
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    std::cerr << "qrank_serve: cannot open " << path << "\n";
    return 2;
  }
  const std::streamoff size = in.tellg();
  in.seekg(0);
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  if (size > 0) in.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!in) {
    std::cerr << "qrank_serve: short read on " << path << "\n";
    return 2;
  }

  if (bytes.size() >= sizeof(BundleHeader)) {
    BundleHeader header;
    std::memcpy(&header, bytes.data(), sizeof(BundleHeader));
    std::printf("%s: %zu bytes\n", path.c_str(), bytes.size());
    std::printf("  magic          %.4s (version %u)\n", header.magic,
                header.version);
    std::printf("  pages          %u\n", header.num_pages);
    std::printf("  sites          %u\n", header.num_sites);
    std::printf("  expected_mass  %.17g\n", header.expected_mass);
    std::printf("  creator_tag    %u\n", header.creator_tag);
    std::printf("  payload_crc32  %08x\n", header.payload_crc32);
    const auto* table = reinterpret_cast<const BundleSectionEntry*>(
        bytes.data() + sizeof(BundleHeader));
    const uint32_t sections =
        std::min(header.section_count, uint32_t{kBundleMaxSections});
    if (bytes.size() >= sizeof(BundleHeader) +
                            uint64_t{sections} * sizeof(BundleSectionEntry)) {
      for (uint32_t i = 0; i < sections; ++i) {
        std::printf("  section %2u     id=%u offset=%" PRIu64
                    " size=%" PRIu64 "\n",
                    i, table[i].id, table[i].offset, table[i].size);
      }
    }
  } else {
    std::printf("%s: %zu bytes (smaller than the bundle header)\n",
                path.c_str(), bytes.size());
  }

  const AuditReport report = AuditScoreBundle(bytes.data(), bytes.size());
  for (const std::string& name : report.ran) {
    std::printf("  %-22s %s\n", name.c_str(),
                report.Failed(name) ? "FAIL" : "PASS");
  }
  for (const AuditIssue& issue : report.issues) {
    std::printf("    %s: %s\n", issue.validator.c_str(),
                issue.detail.c_str());
  }
  return report.ok() ? 0 : 1;
}

Result<TopKQuery> QueryFromFlags(FlagParser& flags) {
  TopKQuery query;
  query.k = static_cast<uint32_t>(flags.GetInt("k", 10));
  query.blend_alpha = flags.GetDouble("alpha", 1.0);
  const int64_t site = flags.GetInt("site", -1);
  query.site = site < 0 ? kAllSites : static_cast<SiteId>(site);
  query.exploration_epsilon = flags.GetDouble("epsilon", 0.0);
  query.exploration_seed =
      static_cast<uint64_t>(flags.GetInt("seed", 0));
  if (!flags.status().ok()) return flags.status();
  return query;
}

int CmdQuery(FlagParser& flags, const std::string& path) {
  Result<TopKQuery> query = QueryFromFlags(flags);
  const bool prefer_mmap = flags.GetBool("mmap", true);
  if (!query.ok() || !flags.status().ok()) {
    PrintUsage(std::cerr);
    return 2;
  }
  Result<LoadedBundle> bundle = OpenBundle(path, prefer_mmap);
  if (!bundle.ok()) {
    std::cerr << "qrank_serve: " << path << ": "
              << bundle.status().ToString() << "\n";
    return 2;
  }
  TopKScratch scratch;
  const Status st =
      QueryEngine::TopKOnBundle(bundle.value(), query.value(), &scratch);
  if (!st.ok()) {
    std::cerr << "qrank_serve: query: " << st.ToString() << "\n";
    return 2;
  }
  size_t rank = 1;
  for (const TopKEntry& e : scratch.results()) {
    std::printf("%zu\t%u\t%u\t%.17g\t%d\n", rank++, e.row, e.page_id,
                e.score, e.promoted ? 1 : 0);
  }
  return 0;
}

int CmdBench(FlagParser& flags, const std::string& path) {
  Result<TopKQuery> query = QueryFromFlags(flags);
  const int64_t num_queries = flags.GetInt("queries", 200000);
  const bool prefer_mmap = flags.GetBool("mmap", true);
  if (!query.ok() || !flags.status().ok() || num_queries <= 0) {
    PrintUsage(std::cerr);
    return 2;
  }
  Result<LoadedBundle> bundle = OpenBundle(path, prefer_mmap);
  if (!bundle.ok()) {
    std::cerr << "qrank_serve: " << path << ": "
              << bundle.status().ToString() << "\n";
    return 2;
  }
  TopKScratch scratch;
  TopKQuery q = query.value();
  // Vary the exploration seed per query so the bench doesn't serve one
  // memoizable draw sequence; deterministic queries ignore it.
  using Clock = std::chrono::steady_clock;
  std::vector<double> sampled_ns;  // every 64th query timed individually
  sampled_ns.reserve(static_cast<size_t>(num_queries) / 64 + 1);
  double checksum = 0.0;
  const Clock::time_point start = Clock::now();
  for (int64_t i = 0; i < num_queries; ++i) {
    q.exploration_seed = static_cast<uint64_t>(i);
    const bool timed = (i & 63) == 0;
    const Clock::time_point t0 = timed ? Clock::now() : Clock::time_point{};
    const Status st = QueryEngine::TopKOnBundle(bundle.value(), q, &scratch);
    if (!st.ok()) {
      std::cerr << "qrank_serve: query " << i << ": " << st.ToString()
                << "\n";
      return 2;
    }
    if (timed) {
      sampled_ns.push_back(
          std::chrono::duration<double, std::nano>(Clock::now() - t0)
              .count());
    }
    const std::span<const TopKEntry> results = scratch.results();
    if (!results.empty()) checksum += results[0].score;
  }
  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  std::sort(sampled_ns.begin(), sampled_ns.end());
  const auto percentile = [&sampled_ns](double p) {
    if (sampled_ns.empty()) return 0.0;
    const size_t i = static_cast<size_t>(p * (sampled_ns.size() - 1));
    return sampled_ns[i];
  };
  std::printf(
      "%s: %" PRId64 " queries in %.3f s = %.0f QPS "
      "(p50 %.0f ns, p99 %.0f ns, checksum %.6g)\n",
      path.c_str(), num_queries, elapsed_s, num_queries / elapsed_s,
      percentile(0.50), percentile(0.99), checksum);
  return 0;
}

int CmdShard(FlagParser& flags, const std::string& path) {
  const std::string out_dir = flags.GetString("out-dir", "");
  const int64_t num_shards = flags.GetInt("shards", 2);
  const bool prefer_mmap = flags.GetBool("mmap", true);
  if (!flags.status().ok() || out_dir.empty() || num_shards < 1 ||
      num_shards > static_cast<int64_t>(kMaxShards)) {
    PrintUsage(std::cerr);
    return 2;
  }
  Result<LoadedBundle> bundle = OpenBundle(path, prefer_mmap);
  if (!bundle.ok()) {
    std::cerr << "qrank_serve: " << path << ": "
              << bundle.status().ToString() << "\n";
    return 2;
  }
  Result<ShardSplit> split = SplitBundleBySite(
      bundle.value(), static_cast<uint32_t>(num_shards), out_dir);
  if (!split.ok()) {
    std::cerr << "qrank_serve: shard: " << split.status().ToString() << "\n";
    return 2;
  }
  const ShardMap& map = split.value().map;
  for (uint32_t s = 0; s < map.num_shards; ++s) {
    const uint32_t site_lo = map.site_boundaries[s];
    const uint32_t site_hi = map.site_boundaries[s + 1];
    const uint64_t page_lo = bundle.value().site_offsets()[site_lo];
    const uint64_t page_hi = bundle.value().site_offsets()[site_hi];
    std::printf("shard %u\t%" PRIu64 " pages\tsites [%u, %u)\t%s\n", s,
                page_hi - page_lo, site_lo, site_hi,
                split.value().bundle_paths[s].c_str());
  }
  std::printf("%s: %u shards, %" PRIu64 " pages, %u sites -> %s\n",
              path.c_str(), map.num_shards, map.total_pages, map.num_sites,
              split.value().map_path.c_str());
  return 0;
}

int Run(int argc, const char* const* argv) {
  if (argc < 2) {
    PrintUsage(std::cerr);
    return 2;
  }
  const std::string command = argv[1];
  // FlagParser skips its argv[0]; handing it argv + 1 makes the
  // subcommand that slot, so positional holds only the operands.
  FlagParser flags(argc - 1, argv + 1);
  const std::vector<std::string>& positional = flags.positional();
  int rc;
  if (command == "build" && positional.empty()) {
    rc = CmdBuild(flags);
  } else if (command == "inspect" && positional.size() == 1) {
    rc = CmdInspect(flags, positional[0]);
  } else if (command == "query" && positional.size() == 1) {
    rc = CmdQuery(flags, positional[0]);
  } else if (command == "bench" && positional.size() == 1) {
    rc = CmdBench(flags, positional[0]);
  } else if (command == "shard" && positional.size() == 1) {
    rc = CmdShard(flags, positional[0]);
  } else {
    PrintUsage(std::cerr);
    return 2;
  }
  const std::vector<std::string> unused = flags.UnusedFlags();
  if (!unused.empty()) {
    std::cerr << "qrank_serve: unknown flag --" << unused.front() << "\n";
    PrintUsage(std::cerr);
    return 2;
  }
  return rc;
}

}  // namespace
}  // namespace qrank

int main(int argc, char** argv) { return qrank::Run(argc, argv); }

// qrank_audit: run the invariant-audit validators (src/audit/) over
// on-disk artifacts and emit a machine-readable TSV verdict.
//
// Usage:
//   qrank_audit [flags] <graph-file>...
//
// Each input file may be a text edge list ("qrank-edges v1"), a binary
// snapshot ("QRKG" magic) or a score bundle ("QRKB" magic); the format
// is sniffed from the first bytes. Every graph gets the graph.* family.
// With --deltas (default) and two or more graphs, each consecutive pair
// is additionally treated as a snapshot step: the delta between them
// is derived and the delta.* family (including the dirty-frontier cover
// check) runs against it. Score bundles get the serve.bundle.* family
// and take no part in delta pairing. With --scores=<file> (one score
// per line) the rank.* family runs too.
//
// Output, one row per validator executed:
//   <artifact> <TAB> <validator> <TAB> PASS|FAIL <TAB> <severity> <TAB> <detail>
// followed by a trailing "# summary: ran=<n> passed=<n> failed=<n>".
//
// Exit status: 0 = every validator passed, 1 = at least one failure,
// 2 = usage or I/O error.
//
// Flags:
//   --transpose=<bool>   build + audit the cached transpose (default true)
//   --deltas=<bool>      audit consecutive graph pairs as deltas (default true)
//   --scores=<path>      text file of scores, one per line
//   --expected-mass=<x>  L1 mass the scores should carry (default 1.0)
//   --mass-tolerance=<x> relative slack for the mass check (default 1e-6)

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "audit/audit.h"
#include "common/flags.h"
#include "common/status.h"
#include "graph/csr_graph.h"
#include "graph/graph_delta.h"
#include "graph/graph_io.h"

namespace qrank {
namespace {

void PrintUsage(std::ostream& os) {
  os << "usage: qrank_audit [--transpose=BOOL] [--deltas=BOOL]\n"
        "                   [--scores=FILE]\n"
        "                   [--expected-mass=X] [--mass-tolerance=X]\n"
        "                   <graph-or-bundle-file>...\n"
        "Audits graph/delta/rank/bundle invariants; TSV verdict on stdout.\n";
}

// Sniffs the binary-snapshot magic to pick the reader.
Result<CsrGraph> LoadGraph(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  char magic[4] = {0, 0, 0, 0};
  in.read(magic, 4);
  in.close();
  if (magic[0] == 'Q' && magic[1] == 'R' && magic[2] == 'K' &&
      magic[3] == 'G') {
    return ReadGraphBinary(path);
  }
  Result<EdgeList> edges = ReadEdgeListText(path);
  if (!edges.ok()) return edges.status();
  return CsrGraph::FromEdgeList(edges.value());
}

// True when the file starts with the score-bundle magic "QRKB".
bool IsScoreBundle(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  char magic[4] = {0, 0, 0, 0};
  in.read(magic, 4);
  return in.gcount() == 4 && magic[0] == 'Q' && magic[1] == 'R' &&
         magic[2] == 'K' && magic[3] == 'B';
}

Result<std::vector<uint8_t>> LoadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IOError("cannot open " + path);
  const std::streamoff size = in.tellg();
  in.seekg(0);
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  if (size > 0) in.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!in) return Status::IOError("short read on " + path);
  return bytes;
}

Result<std::vector<double>> LoadScores(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  std::vector<double> scores;
  std::string token;
  while (in >> token) {
    try {
      size_t used = 0;
      const double v = std::stod(token, &used);
      if (used != token.size()) {
        return Status::Corruption("malformed score '" + token + "' in " +
                                  path);
      }
      scores.push_back(v);
    } catch (const std::exception&) {
      return Status::Corruption("malformed score '" + token + "' in " + path);
    }
  }
  return scores;
}

AuditSeverity RegistrySeverity(const std::string& name) {
  for (const AuditValidator& v : AuditRegistry()) {
    if (name == v.name) return v.severity;
  }
  return AuditSeverity::kError;
}

struct Tally {
  size_t ran = 0;
  size_t failed = 0;
};

// One TSV row per validator that executed; FAIL rows carry the first
// recorded detail so downstream greps stay one-line-per-verdict.
void EmitReport(const std::string& artifact, const AuditReport& report,
                Tally* tally) {
  for (const std::string& name : report.ran) {
    ++tally->ran;
    const AuditIssue* first = nullptr;
    for (const AuditIssue& issue : report.issues) {
      if (issue.validator == name) {
        first = &issue;
        break;
      }
    }
    if (first != nullptr) ++tally->failed;
    std::cout << artifact << '\t' << name << '\t'
              << (first != nullptr ? "FAIL" : "PASS") << '\t'
              << AuditSeverityName(first != nullptr
                                       ? first->severity
                                       : RegistrySeverity(name))
              << '\t' << (first != nullptr ? first->detail : "-") << '\n';
  }
}

int Run(int argc, const char* const* argv) {
  FlagParser flags(argc, argv);
  const bool do_transpose = flags.GetBool("transpose", true);
  const bool do_deltas = flags.GetBool("deltas", true);
  const std::string scores_path = flags.GetString("scores", "");
  const double expected_mass = flags.GetDouble("expected-mass", 1.0);
  const double mass_tolerance = flags.GetDouble("mass-tolerance", 1e-6);
  if (!flags.status().ok()) {
    std::cerr << "qrank_audit: " << flags.status().ToString() << "\n";
    PrintUsage(std::cerr);
    return 2;
  }
  const std::vector<std::string> unused = flags.UnusedFlags();
  if (!unused.empty()) {
    std::cerr << "qrank_audit: unknown flag --" << unused.front() << "\n";
    PrintUsage(std::cerr);
    return 2;
  }
  const std::vector<std::string>& paths = flags.positional();
  if (paths.empty() && scores_path.empty()) {
    PrintUsage(std::cerr);
    return 2;
  }

  Tally tally;
  std::vector<CsrGraph> graphs;
  std::vector<std::string> graph_paths;  // bundle files skip delta pairing
  graphs.reserve(paths.size());
  for (const std::string& path : paths) {
    if (IsScoreBundle(path)) {
      Result<std::vector<uint8_t>> bytes = LoadBytes(path);
      if (!bytes.ok()) {
        std::cerr << "qrank_audit: " << path << ": "
                  << bytes.status().ToString() << "\n";
        return 2;
      }
      EmitReport(path,
                 AuditScoreBundle(bytes.value().data(), bytes.value().size(),
                                  mass_tolerance),
                 &tally);
      continue;
    }
    Result<CsrGraph> graph = LoadGraph(path);
    if (!graph.ok()) {
      std::cerr << "qrank_audit: " << path << ": "
                << graph.status().ToString() << "\n";
      return 2;
    }
    graphs.push_back(std::move(graph).value());
    graph_paths.push_back(path);
    if (do_transpose) graphs.back().BuildTranspose();
    EmitReport(path, AuditGraph(graphs.back()), &tally);
  }

  if (do_deltas) {
    for (size_t i = 1; i < graphs.size(); ++i) {
      const CsrGraph& base = graphs[i - 1];
      const CsrGraph& next = graphs[i];
      const GraphDelta delta = GraphDelta::Between(base, next);
      const std::vector<uint8_t> dirty = delta.DirtyFrontier(next);
      EmitReport(graph_paths[i - 1] + " -> " + graph_paths[i],
                 AuditDelta(base, delta, &next, &dirty), &tally);
    }
  }

  if (!scores_path.empty()) {
    Result<std::vector<double>> scores = LoadScores(scores_path);
    if (!scores.ok()) {
      std::cerr << "qrank_audit: " << scores_path << ": "
                << scores.status().ToString() << "\n";
      return 2;
    }
    EmitReport(scores_path,
               AuditRankVector(scores.value(), expected_mass, mass_tolerance),
               &tally);
  }

  std::cout << "# summary: ran=" << tally.ran << " passed="
            << (tally.ran - tally.failed) << " failed=" << tally.failed
            << "\n";
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace qrank

int main(int argc, char** argv) { return qrank::Run(argc, argv); }

#include "graph/graph_io.h"

#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

namespace qrank {

namespace {

constexpr char kMagic[4] = {'Q', 'R', 'K', 'G'};
constexpr uint32_t kVersion = 1;

uint64_t Fnv1a(const uint8_t* data, size_t len, uint64_t hash) {
  constexpr uint64_t kPrime = 0x100000001b3ULL;
  for (size_t i = 0; i < len; ++i) {
    hash ^= data[i];
    hash *= kPrime;
  }
  return hash;
}

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

template <typename T>
void AppendPod(std::vector<uint8_t>* out, const T& v) {
  const uint8_t* p = reinterpret_cast<const uint8_t*>(&v);
  out->insert(out->end(), p, p + sizeof(T));
}

template <typename T>
bool ReadPod(std::istream& in, T* v) {
  in.read(reinterpret_cast<char*>(v), sizeof(T));
  return static_cast<bool>(in);
}

// Strict decimal parse: digits only, no sign, no overflow. istream's
// operator>> into an unsigned type silently wraps negative input, so ids
// are tokenized and validated by hand instead.
bool ParseU64(const std::string& token, uint64_t* out) {
  if (token.empty()) return false;
  uint64_t v = 0;
  for (char c : token) {
    if (c < '0' || c > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (v > (UINT64_MAX - digit) / 10) return false;
    v = v * 10 + digit;
  }
  *out = v;
  return true;
}

}  // namespace

Status WriteEdgeListText(const EdgeList& edges, const std::string& path) {
  std::ofstream f(path);
  if (!f) return Status::IOError("cannot open for write: " + path);
  f << "# qrank-edges v1\n";
  f << edges.num_nodes() << "\n";
  for (const Edge& e : edges.edges()) {
    f << e.src << " " << e.dst << "\n";
  }
  f.flush();
  if (!f) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<EdgeList> ReadEdgeListText(const std::string& path) {
  std::ifstream f(path);
  if (!f) return Status::IOError("cannot open for read: " + path);
  std::string line;
  bool have_header = false;
  EdgeList out;
  NodeId declared_nodes = 0;
  size_t line_no = 0;
  while (std::getline(f, line)) {
    ++line_no;
    size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos) continue;
    if (line[start] == '#') continue;
    std::istringstream ls(line);
    std::vector<std::string> tokens;
    std::string token;
    while (ls >> token) tokens.push_back(token);
    // Reject negative ids explicitly: extracting into an unsigned type
    // would silently wrap them into (usually enormous) valid-looking
    // values, and a tiny graph could even alias a real node.
    for (const std::string& t : tokens) {
      if (t[0] == '-') {
        return Status::Corruption("negative id at line " +
                                  std::to_string(line_no));
      }
    }
    if (!have_header) {
      uint64_t n = 0;
      if (tokens.size() != 1 || !ParseU64(tokens[0], &n) ||
          n > static_cast<uint64_t>(kInvalidNode)) {
        return Status::Corruption("bad node count at line " +
                                  std::to_string(line_no));
      }
      declared_nodes = static_cast<NodeId>(n);
      out.EnsureNodes(declared_nodes);
      have_header = true;
      continue;
    }
    if (tokens.size() < 2) {
      return Status::Corruption("truncated edge at line " +
                                std::to_string(line_no));
    }
    if (tokens.size() > 2) {
      return Status::Corruption("trailing garbage at line " +
                                std::to_string(line_no));
    }
    uint64_t s = 0, d = 0;
    if (!ParseU64(tokens[0], &s) || !ParseU64(tokens[1], &d)) {
      return Status::Corruption("malformed edge at line " +
                                std::to_string(line_no));
    }
    if (s >= declared_nodes || d >= declared_nodes) {
      return Status::Corruption("edge endpoint out of range at line " +
                                std::to_string(line_no));
    }
    out.Add(static_cast<NodeId>(s), static_cast<NodeId>(d));
  }
  if (!have_header) return Status::Corruption("missing node-count header");
  return out;
}

Status WriteGraphBinary(const CsrGraph& graph, const std::string& path) {
  std::vector<uint8_t> payload;
  payload.reserve(16 + graph.offsets().size() * 8 + graph.targets().size() * 4);
  AppendPod(&payload, static_cast<uint32_t>(graph.num_nodes()));
  AppendPod(&payload, static_cast<uint64_t>(graph.num_edges()));
  for (size_t off : graph.offsets()) {
    AppendPod(&payload, static_cast<uint64_t>(off));
  }
  for (NodeId t : graph.targets()) {
    AppendPod(&payload, static_cast<uint32_t>(t));
  }
  uint64_t checksum = Fnv1a(payload.data(), payload.size(), kFnvOffset);

  std::ofstream f(path, std::ios::binary);
  if (!f) return Status::IOError("cannot open for write: " + path);
  f.write(kMagic, sizeof(kMagic));
  f.write(reinterpret_cast<const char*>(&kVersion), sizeof(kVersion));
  f.write(reinterpret_cast<const char*>(payload.data()),
          static_cast<std::streamsize>(payload.size()));
  f.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  f.flush();
  if (!f) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<CsrGraph> ReadGraphBinary(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return Status::IOError("cannot open for read: " + path);

  char magic[4];
  f.read(magic, sizeof(magic));
  if (!f || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad magic in " + path);
  }
  uint32_t version = 0;
  if (!ReadPod(f, &version) || version != kVersion) {
    return Status::Corruption("unsupported version in " + path);
  }
  uint32_t num_nodes = 0;
  uint64_t num_edges = 0;
  if (!ReadPod(f, &num_nodes) || !ReadPod(f, &num_edges)) {
    return Status::Corruption("truncated header in " + path);
  }
  // Before allocating anything sized by the (untrusted) header, check
  // the file actually holds that many bytes: a corrupt edge count must
  // fail with Corruption, not OOM.
  {
    const std::istream::pos_type here = f.tellg();
    f.seekg(0, std::ios::end);
    const std::istream::pos_type end = f.tellg();
    f.seekg(here);
    if (!f || here < 0 || end < here) {
      return Status::IOError("cannot size " + path);
    }
    const uint64_t remaining = static_cast<uint64_t>(end - here);
    const uint64_t need = (static_cast<uint64_t>(num_nodes) + 1) * 8 +
                          num_edges * 4 + 8;
    if (num_edges > remaining / 4 || remaining < need) {
      return Status::Corruption("header promises more data than " + path +
                                " holds");
    }
  }
  // Re-serialize the payload while reading to verify the checksum.
  std::vector<uint8_t> payload;
  payload.reserve(12 + (static_cast<size_t>(num_nodes) + 1) * 8 +
                  num_edges * 4);
  AppendPod(&payload, num_nodes);
  AppendPod(&payload, num_edges);

  std::vector<uint64_t> offsets(static_cast<size_t>(num_nodes) + 1);
  for (uint64_t& off : offsets) {
    if (!ReadPod(f, &off)) return Status::Corruption("truncated offsets");
    AppendPod(&payload, off);
  }
  std::vector<Edge> edges;
  edges.reserve(num_edges);
  {
    std::vector<uint32_t> targets(num_edges);
    for (uint32_t& t : targets) {
      if (!ReadPod(f, &t)) return Status::Corruption("truncated targets");
      AppendPod(&payload, t);
    }
    // Validate structure and reconstruct edges.
    if (offsets[0] != 0 || offsets[num_nodes] != num_edges) {
      return Status::Corruption("inconsistent offsets");
    }
    for (uint32_t u = 0; u < num_nodes; ++u) {
      // The upper bound must hold before offsets[u + 1] is used as a
      // targets[] index: a corrupt middle offset can overshoot num_edges
      // while the final offset still reconciles.
      if (offsets[u + 1] < offsets[u] || offsets[u + 1] > num_edges) {
        return Status::Corruption("non-monotone offsets");
      }
      for (uint64_t i = offsets[u]; i < offsets[u + 1]; ++i) {
        if (targets[i] >= num_nodes) {
          return Status::Corruption("target out of range");
        }
        edges.push_back(Edge{u, targets[i]});
      }
    }
  }
  uint64_t stored = 0;
  if (!ReadPod(f, &stored)) return Status::Corruption("missing checksum");
  uint64_t actual = Fnv1a(payload.data(), payload.size(), kFnvOffset);
  if (stored != actual) return Status::Corruption("checksum mismatch");

  return CsrGraph::FromEdges(num_nodes, edges);
}

}  // namespace qrank

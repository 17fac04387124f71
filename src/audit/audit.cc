#include "audit/audit.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "graph/reorder.h"
#include "serve/bundle_format.h"

namespace qrank {

namespace {

void Fail(AuditReport* report, const AuditValidator& v, std::string detail) {
  report->issues.push_back({v.name, v.severity, std::move(detail)});
}

// Finds a validator by name in the registry, nullptr if absent.
const AuditValidator* FindValidator(std::string_view name) {
  for (const AuditValidator& v : AuditRegistry()) {
    if (name == v.name) return &v;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// graph.* — CSR well-formedness
// ---------------------------------------------------------------------------

bool NeedsGraph(const AuditContext& ctx) { return ctx.graph != nullptr; }

void RunGraphOffsets(const AuditContext& ctx, AuditReport* report) {
  const AuditValidator& self = *FindValidator("graph.offsets");
  const CsrGraph& g = *ctx.graph;
  const std::vector<size_t>& off = g.offsets();
  const size_t n = g.num_nodes();
  if (n == 0) {
    // A default-constructed graph has no offset array at all; a built
    // empty graph has the single leading zero. Both are well-formed.
    if (!off.empty() && !(off.size() == 1 && off[0] == 0)) {
      Fail(report, self, "empty graph carries a non-trivial offset array");
    }
    if (g.num_edges() != 0) {
      Fail(report, self, "zero nodes but " +
                             std::to_string(g.num_edges()) + " edges");
    }
    return;
  }
  if (off.size() != n + 1) {
    Fail(report, self,
         "offset array has " + std::to_string(off.size()) +
             " entries, want num_nodes + 1 = " + std::to_string(n + 1));
    return;
  }
  if (off[0] != 0) {
    Fail(report, self, "offsets[0] = " + std::to_string(off[0]) + ", want 0");
  }
  for (size_t u = 0; u < n; ++u) {
    if (off[u + 1] < off[u]) {
      Fail(report, self,
           "offsets not monotone at node " + std::to_string(u) + ": " +
               std::to_string(off[u]) + " -> " + std::to_string(off[u + 1]));
      return;  // one skew usually cascades; report the first
    }
  }
  if (off[n] != g.num_edges()) {
    Fail(report, self,
         "offsets[num_nodes] = " + std::to_string(off[n]) +
             " does not equal num_edges = " + std::to_string(g.num_edges()));
  }
}

void RunGraphAdjacency(const AuditContext& ctx, AuditReport* report) {
  const AuditValidator& self = *FindValidator("graph.adjacency");
  const CsrGraph& g = *ctx.graph;
  const std::vector<size_t>& off = g.offsets();
  const std::vector<NodeId>& dst = g.targets();
  const size_t n = g.num_nodes();
  if (off.size() != n + 1) return;  // graph.offsets owns that failure
  for (size_t u = 0; u < n; ++u) {
    // Clamped bounds: stay in-range even when the offset array is
    // corrupt, so this validator never crashes and never double-reports
    // a pure offset skew.
    const size_t lo = std::min(off[u], dst.size());
    const size_t hi = std::min(off[u + 1], dst.size());
    for (size_t i = lo; i < hi; ++i) {
      if (dst[i] >= n) {
        Fail(report, self,
             "edge " + std::to_string(u) + "->" + std::to_string(dst[i]) +
                 " targets a node outside [0, " + std::to_string(n) + ")");
        return;
      }
      if (dst[i] == u) {
        Fail(report, self,
             "self-loop at node " + std::to_string(u) +
                 " (removed at construction by contract)");
        return;
      }
      if (i > lo && dst[i] <= dst[i - 1]) {
        Fail(report, self,
             "adjacency of node " + std::to_string(u) +
                 " not strictly ascending at position " + std::to_string(i) +
                 ": " + std::to_string(dst[i - 1]) + " then " +
                 std::to_string(dst[i]));
        return;
      }
    }
  }
}

void RunGraphTranspose(const AuditContext& ctx, AuditReport* report) {
  const AuditValidator& self = *FindValidator("graph.transpose");
  const CsrGraph& g = *ctx.graph;
  const size_t n = g.num_nodes();
  // Out-of-range forward targets belong to graph.adjacency; recomputing
  // in-degrees over them would be out-of-bounds, so bail out quietly.
  for (NodeId v : g.targets()) {
    if (v >= n) return;
  }
  // In-degree counts recomputed from the forward arrays are the
  // reference; the cached transpose must agree row by row.
  std::vector<uint32_t> want_indeg = g.ComputeInDegrees();
  size_t transpose_edges = 0;
  for (NodeId v = 0; v < n; ++v) {
    std::span<const NodeId> in = g.InNeighbors(v);
    transpose_edges += in.size();
    if (in.size() != want_indeg[v]) {
      Fail(report, self,
           "node " + std::to_string(v) + " has " + std::to_string(in.size()) +
               " cached in-neighbors but forward arrays imply " +
               std::to_string(want_indeg[v]));
      return;
    }
    for (size_t i = 0; i < in.size(); ++i) {
      if (i > 0 && in[i] <= in[i - 1]) {
        Fail(report, self,
             "in-adjacency of node " + std::to_string(v) +
                 " not strictly ascending");
        return;
      }
      if (in[i] >= n || !g.HasEdge(in[i], v)) {
        Fail(report, self,
             "cached in-edge " + std::to_string(in[i]) + "->" +
                 std::to_string(v) + " absent from the forward graph");
        return;
      }
    }
  }
  if (transpose_edges != g.num_edges()) {
    Fail(report, self,
         "transpose holds " + std::to_string(transpose_edges) +
             " edges, forward graph " + std::to_string(g.num_edges()));
  }
}

void RunGraphNonEmpty(const AuditContext& ctx, AuditReport* report) {
  const AuditValidator& self = *FindValidator("graph.nonempty");
  const CsrGraph& g = *ctx.graph;
  if (g.num_nodes() > 0 && g.num_edges() == 0) {
    Fail(report, self,
         std::to_string(g.num_nodes()) +
             " nodes but zero edges; PageRank degenerates to the teleport "
             "distribution");
  }
}

bool NeedsPermutation(const AuditContext& ctx) {
  return ctx.graph != nullptr && ctx.permutation != nullptr;
}

void RunGraphPermutation(const AuditContext& ctx, AuditReport* report) {
  const AuditValidator& self = *FindValidator("graph.permutation");
  const Status st =
      ValidatePermutation(*ctx.permutation, ctx.graph->num_nodes());
  if (!st.ok()) Fail(report, self, st.ToString());
}

void RunGraphPermutationRoundtrip(const AuditContext& ctx,
                                  AuditReport* report) {
  const AuditValidator& self = *FindValidator("graph.permutation_roundtrip");
  const CsrGraph& g = *ctx.graph;
  const std::vector<NodeId>& perm = *ctx.permutation;
  // graph.permutation owns bijectivity failures; the round trip below
  // would index out of bounds on a broken map, so bail out quietly.
  if (!ValidatePermutation(perm, g.num_nodes()).ok()) return;
  Result<CsrGraph> forward = g.Permute(perm);
  if (!forward.ok()) {
    Fail(report, self, "Permute(perm) failed: " + forward.status().ToString());
    return;
  }
  Result<CsrGraph> back = forward.value().Permute(InvertPermutation(perm));
  if (!back.ok()) {
    Fail(report, self,
         "Permute(inverse) failed: " + back.status().ToString());
    return;
  }
  if (back.value().offsets() != g.offsets() ||
      back.value().targets() != g.targets()) {
    Fail(report, self,
         "Permute(perm) followed by Permute(inverse) does not reproduce "
         "the original graph edge-for-edge");
  }
}

// ---------------------------------------------------------------------------
// delta.* — GraphDelta applicability
// ---------------------------------------------------------------------------

bool NeedsDelta(const AuditContext& ctx) { return ctx.delta != nullptr; }
bool NeedsBaseAndDelta(const AuditContext& ctx) {
  return ctx.base != nullptr && ctx.delta != nullptr;
}
bool NeedsFrontier(const AuditContext& ctx) {
  return ctx.delta != nullptr && ctx.graph != nullptr &&
         ctx.dirty_frontier != nullptr;
}

std::string EdgeStr(const Edge& e) {
  return std::to_string(e.src) + "->" + std::to_string(e.dst);
}

// Sorted + strictly increasing (so duplicate-free); endpoint bounds.
bool CheckEdgeList(const std::vector<Edge>& edges, NodeId bound,
                   const char* which, const AuditValidator& self,
                   AuditReport* report) {
  for (size_t i = 0; i < edges.size(); ++i) {
    if (i > 0 && !(edges[i - 1] < edges[i])) {
      Fail(report, self,
           std::string(which) + " list not strictly (src, dst)-sorted at " +
               EdgeStr(edges[i]) +
               (edges[i] == edges[i - 1] ? " (duplicate edge)" : ""));
      return false;
    }
    if (edges[i].src >= bound || edges[i].dst >= bound) {
      Fail(report, self, std::string(which) + " edge " + EdgeStr(edges[i]) +
                             " has an endpoint outside [0, " +
                             std::to_string(bound) + ")");
      return false;
    }
  }
  return true;
}

void RunDeltaShape(const AuditContext& ctx, AuditReport* report) {
  const AuditValidator& self = *FindValidator("delta.shape");
  const GraphDelta& d = *ctx.delta;
  if (!CheckEdgeList(d.added, d.new_num_nodes, "added", self, report)) return;
  if (!CheckEdgeList(d.removed, std::max(d.old_num_nodes, d.new_num_nodes),
                     "removed", self, report)) {
    return;
  }
  for (const Edge& e : d.added) {
    if (e.src == e.dst) {
      Fail(report, self, "added edge " + EdgeStr(e) + " is a self-loop");
      return;
    }
  }
  // An edge in both lists would add and remove the same link in one
  // step; both sorted, so one merge pass finds any intersection.
  size_t i = 0, j = 0;
  while (i < d.added.size() && j < d.removed.size()) {
    if (d.added[i] == d.removed[j]) {
      Fail(report, self,
           "edge " + EdgeStr(d.added[i]) + " listed as both added and removed");
      return;
    }
    if (d.added[i] < d.removed[j]) {
      ++i;
    } else {
      ++j;
    }
  }
}

void RunDeltaApply(const AuditContext& ctx, AuditReport* report) {
  const AuditValidator& self = *FindValidator("delta.apply");
  const CsrGraph& base = *ctx.base;
  const GraphDelta& d = *ctx.delta;
  if (d.old_num_nodes != base.num_nodes()) {
    Fail(report, self,
         "delta.old_num_nodes = " + std::to_string(d.old_num_nodes) +
             " but base graph has " + std::to_string(base.num_nodes()) +
             " nodes");
    return;
  }
  for (const Edge& e : d.removed) {
    if (e.src >= base.num_nodes() || !base.HasEdge(e.src, e.dst)) {
      Fail(report, self,
           "removed edge " + EdgeStr(e) + " does not exist in the base graph");
      return;
    }
  }
  for (const Edge& e : d.added) {
    if (e.src < base.num_nodes() && base.HasEdge(e.src, e.dst)) {
      Fail(report, self,
           "added edge " + EdgeStr(e) + " already present in the base graph");
      return;
    }
  }
  if (d.new_num_nodes < d.old_num_nodes) {
    // Shrinking delta: every base edge incident to a dropped node must
    // be listed in `removed`, or ApplyDelta would leave ghost edges.
    for (NodeId u = 0; u < base.num_nodes(); ++u) {
      for (NodeId v : base.OutNeighbors(u)) {
        if (u < d.new_num_nodes && v < d.new_num_nodes) continue;
        if (!std::binary_search(d.removed.begin(), d.removed.end(),
                                Edge{u, v})) {
          Fail(report, self,
               "edge " + EdgeStr(Edge{u, v}) +
                   " touches a dropped node but is not listed as removed");
          return;
        }
      }
    }
  }
}

void RunDeltaFrontier(const AuditContext& ctx, AuditReport* report) {
  const AuditValidator& self = *FindValidator("delta.frontier");
  const GraphDelta& d = *ctx.delta;
  const CsrGraph& to = *ctx.graph;
  const std::vector<uint8_t>& frontier = *ctx.dirty_frontier;
  if (frontier.size() != d.new_num_nodes ||
      to.num_nodes() != d.new_num_nodes) {
    Fail(report, self,
         "frontier has " + std::to_string(frontier.size()) +
             " entries over a graph of " + std::to_string(to.num_nodes()) +
             " nodes; delta says new_num_nodes = " +
             std::to_string(d.new_num_nodes));
    return;
  }
  // Recompute the minimal required frontier independently of
  // GraphDelta::DirtyFrontier (which is itself code under audit).
  std::vector<uint8_t> required(d.new_num_nodes, 0);
  for (NodeId u = d.old_num_nodes; u < d.new_num_nodes; ++u) required[u] = 1;
  std::vector<int64_t> outdeg_change(d.new_num_nodes, 0);
  auto touch = [&](const Edge& e, int64_t sign) {
    if (e.src < d.new_num_nodes) {
      required[e.src] = 1;
      outdeg_change[e.src] += sign;
    }
    if (e.dst < d.new_num_nodes) required[e.dst] = 1;
  };
  for (const Edge& e : d.added) touch(e, +1);
  for (const Edge& e : d.removed) touch(e, -1);
  for (NodeId u = 0; u < d.new_num_nodes; ++u) {
    if (outdeg_change[u] == 0) continue;
    // The share x/c this node pushes changed for *every* out-neighbor.
    for (NodeId v : to.OutNeighbors(u)) required[v] = 1;
  }
  for (NodeId u = 0; u < d.new_num_nodes; ++u) {
    if (required[u] && !frontier[u]) {
      Fail(report, self,
           "node " + std::to_string(u) +
               " is touched by the delta but missing from the dirty "
               "frontier (its row would start frozen on stale inputs)");
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// rank.* — rank-vector invariants
// ---------------------------------------------------------------------------

bool NeedsScores(const AuditContext& ctx) { return ctx.scores != nullptr; }

void RunRankFinite(const AuditContext& ctx, AuditReport* report) {
  const AuditValidator& self = *FindValidator("rank.finite");
  const std::vector<double>& x = *ctx.scores;
  for (size_t i = 0; i < x.size(); ++i) {
    if (!std::isfinite(x[i])) {
      Fail(report, self, "score[" + std::to_string(i) + "] is not finite");
      return;
    }
    if (x[i] < 0.0) {
      Fail(report, self, "score[" + std::to_string(i) + "] = " +
                             std::to_string(x[i]) + " is negative");
      return;
    }
  }
}

void RunRankMass(const AuditContext& ctx, AuditReport* report) {
  const AuditValidator& self = *FindValidator("rank.mass");
  const std::vector<double>& x = *ctx.scores;
  if (x.empty()) return;
  double sum = 0.0;
  for (double s : x) sum += s;
  if (!std::isfinite(sum)) return;  // rank.finite owns that failure
  const double slack =
      ctx.mass_tolerance * std::max(1.0, std::fabs(ctx.expected_mass));
  if (std::fabs(sum - ctx.expected_mass) > slack) {
    std::ostringstream os;
    os << "scores sum to " << sum << ", want " << ctx.expected_mass
       << " within " << slack;
    Fail(report, self, os.str());
  }
}

// ---------------------------------------------------------------------------
// engine.* — engine-contract checks
// ---------------------------------------------------------------------------

bool NeedsResidualContract(const AuditContext& ctx) {
  return ctx.graph != nullptr && ctx.scores != nullptr &&
         ctx.tolerance > 0.0 && ctx.declared_converged &&
         ctx.scores->size() == ctx.graph->num_nodes() &&
         ctx.graph->num_nodes() > 0;
}

void RunEngineResidual(const AuditContext& ctx, AuditReport* report) {
  const AuditValidator& self = *FindValidator("engine.residual");
  const CsrGraph& g = *ctx.graph;
  const size_t n = g.num_nodes();
  // Probability-normalize a copy: the declared tolerance is defined on
  // the probability scale regardless of the output ScaleConvention.
  std::vector<double> x = *ctx.scores;
  double sum = 0.0;
  for (double s : x) sum += s;
  if (!(sum > 0.0) || !std::isfinite(sum)) return;  // rank.* owns this
  for (double& s : x) s /= sum;

  const double alpha = ctx.damping;
  double dangling = 0.0;
  for (NodeId u = 0; u < n; ++u) {
    if (g.OutDegree(u) == 0) dangling += x[u];
  }
  // One application of the full operator F (uniform teleport, dangling
  // mass redistributed — footnote 2): a vector declared converged at
  // tolerance t satisfies ||F(x) - x||_1 <= alpha * t; renormalization
  // after a drift-budget solve adds at most freeze_threshold * t < t.
  // 2t is therefore a sound and tight acceptance bound.
  const double base_mass = (1.0 - alpha + alpha * dangling) / n;
  double residual = 0.0;
  for (NodeId i = 0; i < n; ++i) {
    double pull = 0.0;
    for (NodeId u : g.InNeighbors(i)) {
      pull += x[u] / g.OutDegree(u);
    }
    residual += std::fabs(base_mass + alpha * pull - x[i]);
  }
  const double bound = 2.0 * ctx.tolerance;
  if (residual > bound) {
    std::ostringstream os;
    os << "vector declared converged at tolerance " << ctx.tolerance
       << " but one full sweep moves it by " << residual << " (allowed "
       << bound << ")";
    Fail(report, self, os.str());
  }
}

bool NeedsDriftLedger(const AuditContext& ctx) {
  return ctx.drift_ledger_total >= 0.0;
}

void RunEngineDrift(const AuditContext& ctx, AuditReport* report) {
  const AuditValidator& self = *FindValidator("engine.drift");
  // The frozen-set engine banks un-announced movement per row, each
  // account strictly below budget/n at sweep end; the ledger total must
  // therefore stay under the budget (tiny fp headroom allowed).
  const double bound = ctx.drift_budget * (1.0 + 1e-9);
  if (ctx.drift_ledger_total > bound) {
    std::ostringstream os;
    os << "drift ledger holds " << ctx.drift_ledger_total
       << " of hidden movement, over the declared budget "
       << ctx.drift_budget;
    Fail(report, self, os.str());
  }
}

// ---------------------------------------------------------------------------
// serve.bundle.* — score-bundle artifact checks (serve/bundle_format.h)
// ---------------------------------------------------------------------------

bool NeedsBundle(const AuditContext& ctx) {
  return ctx.bundle_data != nullptr;
}

// Layered parse shared by the bundle validators. Each validator silently
// passes when the layer below the one it owns is already broken —
// header corruption is serve.bundle.header's alone, table corruption
// serve.bundle.sections', and so on — preserving the registry's
// exactly-one-validator diagnostic property.
struct BundleView {
  BundleHeader header = {};
  const BundleSectionEntry* table = nullptr;
  bool header_ok = false;
  bool sections_ok = false;
};

BundleView ParseBundle(const AuditContext& ctx) {
  BundleView v;
  if (ctx.bundle_size < sizeof(BundleHeader)) return v;
  std::memcpy(&v.header, ctx.bundle_data, sizeof(BundleHeader));
  if (!ValidateBundleHeader(v.header, ctx.bundle_size).ok()) return v;
  v.header_ok = true;
  v.table = reinterpret_cast<const BundleSectionEntry*>(
      ctx.bundle_data + sizeof(BundleHeader));
  v.sections_ok =
      ValidateBundleSections(v.header, v.table, ctx.bundle_size).ok();
  return v;
}

const uint8_t* BundleSection(const BundleView& v, const AuditContext& ctx,
                             uint32_t id) {
  for (uint32_t i = 0; i < v.header.section_count; ++i) {
    if (v.table[i].id == id) return ctx.bundle_data + v.table[i].offset;
  }
  return nullptr;
}

void RunServeBundleHeader(const AuditContext& ctx, AuditReport* report) {
  const AuditValidator& self = *FindValidator("serve.bundle.header");
  if (ctx.bundle_size < sizeof(BundleHeader)) {
    Fail(report, self,
         "image of " + std::to_string(ctx.bundle_size) +
             " bytes is smaller than the fixed header");
    return;
  }
  BundleHeader header;
  std::memcpy(&header, ctx.bundle_data, sizeof(BundleHeader));
  const Status st = ValidateBundleHeader(header, ctx.bundle_size);
  if (!st.ok()) Fail(report, self, st.message());
}

void RunServeBundleSections(const AuditContext& ctx, AuditReport* report) {
  const AuditValidator& self = *FindValidator("serve.bundle.sections");
  const BundleView v = ParseBundle(ctx);
  if (!v.header_ok) return;  // serve.bundle.header owns that failure
  const Status st = ValidateBundleSections(v.header, v.table, ctx.bundle_size);
  if (!st.ok()) Fail(report, self, st.message());
}

void RunServeBundleCrc(const AuditContext& ctx, AuditReport* report) {
  const AuditValidator& self = *FindValidator("serve.bundle.crc");
  const BundleView v = ParseBundle(ctx);
  if (!v.header_ok) return;
  const uint64_t table_end = BundleTableEnd(v.header);
  const uint32_t crc = BundleCrc32(ctx.bundle_data + table_end,
                                   ctx.bundle_size - table_end);
  if (crc != v.header.payload_crc32) {
    std::ostringstream os;
    os << "payload CRC " << std::hex << crc << " != declared "
       << v.header.payload_crc32;
    Fail(report, self, os.str());
  }
}

void RunServeBundleScores(const AuditContext& ctx, AuditReport* report) {
  const AuditValidator& self = *FindValidator("serve.bundle.scores");
  const BundleView v = ParseBundle(ctx);
  if (!v.sections_ok) return;  // header/sections validators own those
  const size_t n = v.header.num_pages;
  const double* quality = reinterpret_cast<const double*>(
      BundleSection(v, ctx, kBundleQuality));
  const double* pagerank = reinterpret_cast<const double*>(
      BundleSection(v, ctx, kBundlePageRank));
  for (size_t i = 0; i < n; ++i) {
    if (!std::isfinite(quality[i]) || quality[i] < 0.0) {
      Fail(report, self,
           "quality[" + std::to_string(i) + "] is not finite non-negative");
      return;
    }
    if (!std::isfinite(pagerank[i]) || pagerank[i] < 0.0) {
      Fail(report, self,
           "pagerank[" + std::to_string(i) + "] is not finite non-negative");
      return;
    }
  }
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) sum += pagerank[i];
  const double slack =
      ctx.mass_tolerance * std::max(1.0, std::fabs(v.header.expected_mass));
  if (std::fabs(sum - v.header.expected_mass) > slack) {
    std::ostringstream os;
    os << "pagerank sums to " << sum << ", header declares "
       << v.header.expected_mass << " (slack " << slack << ")";
    Fail(report, self, os.str());
  }
}

void RunServeBundleIndex(const AuditContext& ctx, AuditReport* report) {
  const AuditValidator& self = *FindValidator("serve.bundle.index");
  const BundleView v = ParseBundle(ctx);
  if (!v.sections_ok) return;
  const size_t n = v.header.num_pages;
  const uint32_t num_sites = v.header.num_sites;
  const double* quality = reinterpret_cast<const double*>(
      BundleSection(v, ctx, kBundleQuality));
  const double* pagerank = reinterpret_cast<const double*>(
      BundleSection(v, ctx, kBundlePageRank));
  const uint32_t* site_ids = reinterpret_cast<const uint32_t*>(
      BundleSection(v, ctx, kBundleSiteIds));
  const uint32_t* site_offsets = reinterpret_cast<const uint32_t*>(
      BundleSection(v, ctx, kBundleSiteOffsets));
  const uint32_t* site_pages = reinterpret_cast<const uint32_t*>(
      BundleSection(v, ctx, kBundleSitePages));

  // Comparisons with a non-finite score are skipped: those rows are
  // serve.bundle.scores' finding, not an ordering defect.
  const auto check_order = [&](const char* name, const uint32_t* order,
                               const double* score) {
    std::vector<uint8_t> seen(n, 0);
    for (size_t i = 0; i < n; ++i) {
      if (order[i] >= n) {
        Fail(report, self,
             std::string(name) + "[" + std::to_string(i) + "] = " +
                 std::to_string(order[i]) + " out of row range");
        return false;
      }
      if (seen[order[i]]++) {
        Fail(report, self,
             std::string(name) + " repeats row " + std::to_string(order[i]));
        return false;
      }
      if (i > 0 && std::isfinite(score[order[i - 1]]) &&
          std::isfinite(score[order[i]]) &&
          score[order[i]] > score[order[i - 1]]) {
        Fail(report, self,
             std::string(name) + " not score-descending at position " +
                 std::to_string(i));
        return false;
      }
    }
    return true;
  };
  if (!check_order("order_by_quality",
                   reinterpret_cast<const uint32_t*>(
                       BundleSection(v, ctx, kBundleOrderByQuality)),
                   quality)) {
    return;
  }
  if (!check_order("order_by_pagerank",
                   reinterpret_cast<const uint32_t*>(
                       BundleSection(v, ctx, kBundleOrderByPageRank)),
                   pagerank)) {
    return;
  }

  for (size_t i = 0; i < n; ++i) {
    if (site_ids[i] >= num_sites) {
      Fail(report, self,
           "site_ids[" + std::to_string(i) + "] = " +
               std::to_string(site_ids[i]) + " >= num_sites " +
               std::to_string(num_sites));
      return;
    }
  }
  if (site_offsets[0] != 0 || site_offsets[num_sites] != n) {
    Fail(report, self, "site_offsets do not span [0, num_pages]");
    return;
  }
  for (uint32_t s = 0; s < num_sites; ++s) {
    if (site_offsets[s + 1] < site_offsets[s]) {
      Fail(report, self,
           "site_offsets not monotone at site " + std::to_string(s));
      return;
    }
  }
  std::vector<uint8_t> seen(n, 0);
  for (uint32_t s = 0; s < num_sites; ++s) {
    for (uint32_t i = site_offsets[s]; i < site_offsets[s + 1]; ++i) {
      const uint32_t row = site_pages[i];
      if (row >= n) {
        Fail(report, self,
             "site_pages[" + std::to_string(i) + "] out of row range");
        return;
      }
      if (seen[row]++) {
        Fail(report, self,
             "site_pages repeats row " + std::to_string(row));
        return;
      }
      if (site_ids[row] != s) {
        Fail(report, self,
             "site_pages[" + std::to_string(i) + "] = row " +
                 std::to_string(row) + " listed under site " +
                 std::to_string(s) + " but carries site " +
                 std::to_string(site_ids[row]));
        return;
      }
      if (i > site_offsets[s] && std::isfinite(quality[site_pages[i - 1]]) &&
          std::isfinite(quality[row]) &&
          quality[row] > quality[site_pages[i - 1]]) {
        Fail(report, self,
             "site " + std::to_string(s) +
                 " postings not quality-descending at position " +
                 std::to_string(i));
        return;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ingest.* — continuous-ingest bookkeeping
// ---------------------------------------------------------------------------

bool NeedsIngestQueue(const AuditContext& ctx) { return ctx.has_ingest_queue; }

void RunIngestQueue(const AuditContext& ctx, AuditReport* report) {
  const AuditValidator& self = *FindValidator("ingest.queue");
  // Conservation: every accepted event is either still queued or was
  // handed to the consumer. Rejected pushes never enter the ledger, so
  // they appear on neither side.
  if (ctx.queue_enqueued != ctx.queue_dequeued + ctx.queue_depth) {
    Fail(report, self,
         "counter conservation broken: enqueued " +
             std::to_string(ctx.queue_enqueued) + " != dequeued " +
             std::to_string(ctx.queue_dequeued) + " + depth " +
             std::to_string(ctx.queue_depth) + " (events were lost)");
    return;
  }
  if (ctx.queue_depth > ctx.queue_capacity) {
    Fail(report, self,
         "depth " + std::to_string(ctx.queue_depth) +
             " exceeds the bounded capacity " +
             std::to_string(ctx.queue_capacity));
  }
}

bool NeedsIngestBatch(const AuditContext& ctx) {
  return ctx.delta != nullptr && ctx.ingest_batch_events >= 0;
}

void RunIngestBatch(const AuditContext& ctx, AuditReport* report) {
  const AuditValidator& self = *FindValidator("ingest.batch");
  const GraphDelta& d = *ctx.delta;
  const int64_t events = ctx.ingest_batch_events;
  const int64_t edge_events = ctx.ingest_batch_edge_events;
  if (edge_events < 0 || edge_events > events) {
    Fail(report, self,
         "batch claims " + std::to_string(edge_events) +
             " edge events out of " + std::to_string(events) + " total");
    return;
  }
  // Last-writer-wins coalescing can only cancel events, never invent
  // structural change: at most one net change per raw edge event.
  const int64_t net = static_cast<int64_t>(d.num_changes());
  if (net > edge_events) {
    Fail(report, self,
         "delta carries " + std::to_string(net) +
             " net changes from only " + std::to_string(edge_events) +
             " raw edge events (coalescing invented changes)");
    return;
  }
  // Streaming deltas are growth-only: pages are born when an edge first
  // names them; nothing in the event vocabulary deletes a page.
  if (d.new_num_nodes < d.old_num_nodes) {
    Fail(report, self,
         "batch shrinks the page set from " +
             std::to_string(d.old_num_nodes) + " to " +
             std::to_string(d.new_num_nodes) +
             " nodes (ingest deltas are growth-only)");
  }
}

}  // namespace

const char* AuditSeverityName(AuditSeverity severity) {
  return severity == AuditSeverity::kError ? "error" : "warning";
}

bool AuditReport::ok() const {
  for (const AuditIssue& issue : issues) {
    if (issue.severity == AuditSeverity::kError) return false;
  }
  return true;
}

bool AuditReport::Failed(std::string_view validator) const {
  for (const AuditIssue& issue : issues) {
    if (issue.validator == validator) return true;
  }
  return false;
}

std::vector<std::string> AuditReport::FailedValidators() const {
  std::vector<std::string> out;
  for (const AuditIssue& issue : issues) {
    if (std::find(out.begin(), out.end(), issue.validator) == out.end()) {
      out.push_back(issue.validator);
    }
  }
  return out;
}

void AuditReport::Merge(AuditReport other) {
  ran.insert(ran.end(), std::make_move_iterator(other.ran.begin()),
             std::make_move_iterator(other.ran.end()));
  issues.insert(issues.end(), std::make_move_iterator(other.issues.begin()),
                std::make_move_iterator(other.issues.end()));
}

std::string AuditReport::ToString() const {
  std::ostringstream os;
  os << (ok() ? "AUDIT PASS" : "AUDIT FAIL") << " (" << ran.size()
     << " validators, " << issues.size() << " issues)\n";
  for (const AuditIssue& issue : issues) {
    os << "  [" << AuditSeverityName(issue.severity) << "] "
       << issue.validator << ": " << issue.detail << "\n";
  }
  return os.str();
}

const std::vector<AuditValidator>& AuditRegistry() {
  static const std::vector<AuditValidator> kRegistry = {
      {"graph.offsets", AuditSeverity::kError,
       "CSR offset array: size num_nodes + 1, leading zero, monotone, "
       "total equals num_edges",
       NeedsGraph, RunGraphOffsets},
      {"graph.adjacency", AuditSeverity::kError,
       "per-row adjacency strictly ascending, in node range, self-loop "
       "free",
       NeedsGraph, RunGraphAdjacency},
      {"graph.transpose", AuditSeverity::kError,
       "cached transpose agrees edge-for-edge with the forward arrays",
       [](const AuditContext& ctx) {
         return ctx.graph != nullptr && ctx.graph->has_transpose();
       },
       RunGraphTranspose},
      {"graph.nonempty", AuditSeverity::kWarning,
       "graphs with nodes but no edges are suspicious inputs for the "
       "ranking pipeline",
       NeedsGraph, RunGraphNonEmpty},
      {"graph.permutation", AuditSeverity::kError,
       "claimed node relabeling is a bijection on [0, num_nodes)",
       NeedsPermutation, RunGraphPermutation},
      {"graph.permutation_roundtrip", AuditSeverity::kError,
       "Permute(perm) then Permute(inverse) reproduces the graph "
       "edge-for-edge",
       NeedsPermutation, RunGraphPermutationRoundtrip},
      {"delta.shape", AuditSeverity::kError,
       "added/removed lists sorted, duplicate-free, disjoint, in range, "
       "self-loop free",
       NeedsDelta, RunDeltaShape},
      {"delta.apply", AuditSeverity::kError,
       "delta applies exactly to the base graph: removals exist, "
       "additions are absent, dropped-node edges fully listed",
       NeedsBaseAndDelta, RunDeltaApply},
      {"delta.frontier", AuditSeverity::kError,
       "dirty frontier covers every row the delta touches (new pages, "
       "changed endpoints, out-neighbors of rescaled rows)",
       NeedsFrontier, RunDeltaFrontier},
      {"rank.finite", AuditSeverity::kError,
       "every score finite and non-negative", NeedsScores, RunRankFinite},
      {"rank.mass", AuditSeverity::kError,
       "L1 mass within tolerance of the declared scale convention",
       NeedsScores, RunRankMass},
      {"engine.residual", AuditSeverity::kError,
       "a vector declared converged is a fixed point of the full "
       "PageRank operator (dangling mass included) to ~tolerance",
       NeedsResidualContract, RunEngineResidual},
      {"engine.drift", AuditSeverity::kError,
       "DeltaPageRank's hidden-movement ledger stayed under its "
       "freeze_threshold * tolerance budget",
       NeedsDriftLedger, RunEngineDrift},
      {"serve.bundle.header", AuditSeverity::kError,
       "bundle magic, version, declared geometry and header CRC agree "
       "with the real image size",
       NeedsBundle, RunServeBundleHeader},
      {"serve.bundle.sections", AuditSeverity::kError,
       "section table lists each v1 section exactly once, aligned, "
       "exactly sized, in bounds and non-overlapping",
       NeedsBundle, RunServeBundleSections},
      {"serve.bundle.crc", AuditSeverity::kError,
       "payload CRC-32 over the section bytes matches the header",
       NeedsBundle, RunServeBundleCrc},
      {"serve.bundle.scores", AuditSeverity::kError,
       "quality/pagerank columns finite and non-negative, pagerank mass "
       "matches the header's declared scale",
       NeedsBundle, RunServeBundleScores},
      {"serve.bundle.index", AuditSeverity::kError,
       "order sections are score-descending row permutations and site "
       "postings partition the pages by their site ids",
       NeedsBundle, RunServeBundleIndex},
      {"ingest.queue", AuditSeverity::kError,
       "update-queue counter conservation: accepted events are either "
       "queued or drained, and depth stays within capacity",
       NeedsIngestQueue, RunIngestQueue},
      {"ingest.batch", AuditSeverity::kError,
       "coalesced batch contract: net delta no larger than its raw edge "
       "events, page set growth-only",
       NeedsIngestBatch, RunIngestBatch},
  };
  return kRegistry;
}

AuditReport RunAudit(const AuditContext& ctx) {
  AuditReport report;
  for (const AuditValidator& v : AuditRegistry()) {
    if (!v.applicable(ctx)) continue;
    report.ran.emplace_back(v.name);
    v.run(ctx, &report);
  }
  return report;
}

Result<AuditReport> RunAuditValidator(std::string_view name,
                                      const AuditContext& ctx) {
  const AuditValidator* v = FindValidator(name);
  if (v == nullptr) {
    return Status::NotFound("no audit validator named '" + std::string(name) +
                            "'");
  }
  if (!v->applicable(ctx)) {
    return Status::FailedPrecondition(
        "audit context lacks the inputs validator '" + std::string(name) +
        "' needs");
  }
  AuditReport report;
  report.ran.emplace_back(v->name);
  v->run(ctx, &report);
  return report;
}

AuditReport AuditGraph(const CsrGraph& graph) {
  AuditContext ctx;
  ctx.graph = &graph;
  return RunAudit(ctx);
}

AuditReport AuditDelta(const CsrGraph& base, const GraphDelta& delta,
                       const CsrGraph* applied,
                       const std::vector<uint8_t>* dirty_frontier) {
  AuditContext ctx;
  ctx.base = &base;
  ctx.delta = &delta;
  ctx.graph = applied;
  ctx.dirty_frontier = dirty_frontier;
  return RunAudit(ctx);
}

AuditReport AuditPermutation(const CsrGraph& graph,
                             const std::vector<NodeId>& perm) {
  AuditContext ctx;
  ctx.graph = &graph;
  ctx.permutation = &perm;
  AuditReport report;
  for (const char* name : {"graph.permutation", "graph.permutation_roundtrip"}) {
    const AuditValidator* v = FindValidator(name);
    report.ran.emplace_back(v->name);
    v->run(ctx, &report);
  }
  return report;
}

AuditReport AuditRankVector(const std::vector<double>& scores,
                            double expected_mass, double mass_tolerance) {
  AuditContext ctx;
  ctx.scores = &scores;
  ctx.expected_mass = expected_mass;
  ctx.mass_tolerance = mass_tolerance;
  return RunAudit(ctx);
}

AuditReport AuditScoreBundle(const uint8_t* data, size_t size,
                             double mass_tolerance) {
  AuditContext ctx;
  ctx.bundle_data = data;
  ctx.bundle_size = size;
  ctx.mass_tolerance = mass_tolerance;
  return RunAudit(ctx);
}

AuditReport AuditIngestQueue(uint64_t capacity, uint64_t depth,
                             uint64_t enqueued, uint64_t dequeued,
                             uint64_t rejected) {
  AuditContext ctx;
  ctx.has_ingest_queue = true;
  ctx.queue_capacity = capacity;
  ctx.queue_depth = depth;
  ctx.queue_enqueued = enqueued;
  ctx.queue_dequeued = dequeued;
  ctx.queue_rejected = rejected;
  return RunAudit(ctx);
}

AuditReport AuditIngestBatch(const CsrGraph& base, const GraphDelta& delta,
                             uint64_t num_events, uint64_t num_edge_events) {
  AuditContext ctx;
  ctx.base = &base;
  ctx.delta = &delta;
  ctx.ingest_batch_events = static_cast<int64_t>(num_events);
  ctx.ingest_batch_edge_events = static_cast<int64_t>(num_edge_events);
  // Run only the ingest.batch contract; the delta.* family is the
  // caller's separate AuditDelta pass (avoids double-reporting).
  const AuditValidator* v = FindValidator("ingest.batch");
  AuditReport report;
  report.ran.emplace_back(v->name);
  v->run(ctx, &report);
  return report;
}

}  // namespace qrank

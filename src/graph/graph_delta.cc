#include "graph/graph_delta.h"

#include <algorithm>
#include <span>

#include "common/logging.h"

namespace qrank {

namespace {

// Merge-diff of two ascending neighbor lists for one source node.
void DiffAdjacency(NodeId u, std::span<const NodeId> a,
                   std::span<const NodeId> b, std::vector<Edge>* removed,
                   std::vector<Edge>* added) {
  size_t i = 0, j = 0;
  while (i < a.size() || j < b.size()) {
    if (j == b.size() || (i < a.size() && a[i] < b[j])) {
      removed->push_back({u, a[i++]});
    } else if (i == a.size() || b[j] < a[i]) {
      added->push_back({u, b[j++]});
    } else {
      ++i;
      ++j;
    }
  }
}

// `edges` with each edge reversed, sorted by (dst, src): a delta's edit
// list keyed for the in-adjacency (transpose) side.
std::vector<Edge> Transposed(const std::vector<Edge>& edges) {
  std::vector<Edge> t;
  t.reserve(edges.size());
  for (const Edge& e : edges) t.push_back({e.dst, e.src});
  std::sort(t.begin(), t.end());
  return t;
}

// Appends rows [lo, hi) of the CSR (offsets, targets) with `n_old` rows,
// unchanged, to (out_offsets, out_targets): one copy of the targets and
// each offset moved by the same shift. Rows at or past `n_old` are empty.
// When the node set shrinks to `n_new`, a copied target that is a
// dropped node is an edge the delta failed to remove.
Status CopyRows(std::span<const size_t> offsets,
                std::span<const NodeId> targets, NodeId n_old, NodeId lo,
                NodeId hi, NodeId n_new, std::vector<size_t>* out_offsets,
                std::vector<NodeId>* out_targets) {
  const NodeId copy_hi = std::min(hi, n_old);
  if (lo < copy_hi) {
    const std::span<const NodeId> run =
        targets.subspan(offsets[lo], offsets[copy_hi] - offsets[lo]);
    const auto dropped = [n_new](NodeId v) { return v >= n_new; };
    if (n_new < n_old && std::any_of(run.begin(), run.end(), dropped)) {
      return Status::InvalidArgument(
          "delta does not remove an edge to a dropped node");
    }
    // Unsigned wrap-around makes the shift exact in either direction.
    const size_t shift = out_targets->size() - offsets[lo];
    for (NodeId u = lo; u < copy_hi; ++u) {
      (*out_offsets)[u + 1] = offsets[u + 1] + shift;
    }
    out_targets->insert(out_targets->end(), run.begin(), run.end());
  }
  for (NodeId u = std::max(lo, copy_hi); u < hi; ++u) {
    (*out_offsets)[u + 1] = out_targets->size();
  }
  return Status::OK();
}

// One side of ApplyDelta. Splices the CSR (offsets, targets) with `n_old`
// rows (a default-constructed graph has no offsets at all) with `added` and `removed` (row in `src`,
// target in `dst`, both sorted) into rows [0, n_new) of (out_offsets,
// out_targets). Runs of rows the delta does not touch are copied whole;
// only the touched rows are merged entry by entry, so the work is a
// memory copy plus O(|delta| + degree of the touched rows).
Status SpliceRows(std::span<const size_t> offsets,
                  std::span<const NodeId> targets, NodeId n_old,
                  NodeId n_new, std::span<const Edge> added,
                  std::span<const Edge> removed,
                  std::vector<size_t>* out_offsets,
                  std::vector<NodeId>* out_targets) {
  auto old_row_of = [&](NodeId r) {
    return r < n_old ? targets.subspan(offsets[r], offsets[r + 1] - offsets[r])
                     : std::span<const NodeId>{};
  };
  out_offsets->assign(static_cast<size_t>(n_new) + 1, 0);
  out_targets->clear();
  out_targets->reserve(targets.size() + added.size());
  size_t ai = 0, ri = 0;
  NodeId u = 0;  // first row not yet written
  while (true) {
    // The next row the delta touches; removals from dropped rows (src at
    // or past n_new) are checked after the loop.
    NodeId row = n_new;
    if (ai < added.size()) row = std::min(row, added[ai].src);
    if (ri < removed.size()) row = std::min(row, removed[ri].src);
    QRANK_RETURN_NOT_OK(CopyRows(offsets, targets, n_old, u, row, n_new,
                                 out_offsets, out_targets));
    if (row == n_new) break;

    const std::span<const NodeId> old_row = old_row_of(row);
    size_t i = 0;
    while (i < old_row.size() ||
           (ai < added.size() && added[ai].src == row)) {
      const bool has_add = ai < added.size() && added[ai].src == row;
      if (has_add &&
          (i == old_row.size() || added[ai].dst < old_row[i])) {
        out_targets->push_back(added[ai].dst);
        ++ai;
        continue;
      }
      const NodeId v = old_row[i];
      if (has_add && added[ai].dst == v) {
        return Status::InvalidArgument("added edge already present");
      }
      if (ri < removed.size() && removed[ri].src == row &&
          removed[ri].dst == v) {
        ++ri;  // drop this edge
        ++i;
        continue;
      }
      if (v >= n_new) {
        return Status::InvalidArgument(
            "delta does not remove an edge to a dropped node");
      }
      out_targets->push_back(v);
      ++i;
    }
    if (ri < removed.size() && removed[ri].src == row) {
      return Status::InvalidArgument("removed edge not present in graph");
    }
    (*out_offsets)[row + 1] = out_targets->size();
    u = row + 1;
  }
  // Remaining removed entries cover the out-edges of dropped rows.
  for (; ri < removed.size(); ++ri) {
    const std::span<const NodeId> old_row = old_row_of(removed[ri].src);
    if (!std::binary_search(old_row.begin(), old_row.end(),
                            removed[ri].dst)) {
      return Status::InvalidArgument("removed edge not present in graph");
    }
  }
  // A dropped row whose entries were not all listed would surface here.
  if (out_targets->size() + removed.size() != targets.size() + added.size()) {
    return Status::InvalidArgument(
        "delta does not account for every edge of dropped nodes");
  }
  return Status::OK();
}

// Compile-time audit level (see common/logging.h): 1 adds cheap shape
// postconditions to ApplyDelta, 2 re-validates the whole structure
// (including a patched transpose) before the result escapes.
constexpr int kAuditLevel = QRANK_AUDIT_LEVEL;

}  // namespace

GraphDelta GraphDelta::Between(const CsrGraph& from, const CsrGraph& to) {
  GraphDelta d;
  d.old_num_nodes = from.num_nodes();
  d.new_num_nodes = to.num_nodes();
  const NodeId upper = std::max(d.old_num_nodes, d.new_num_nodes);
  for (NodeId u = 0; u < upper; ++u) {
    std::span<const NodeId> a =
        u < d.old_num_nodes ? from.OutNeighbors(u) : std::span<const NodeId>{};
    std::span<const NodeId> b =
        u < d.new_num_nodes ? to.OutNeighbors(u) : std::span<const NodeId>{};
    DiffAdjacency(u, a, b, &d.removed, &d.added);
  }
  return d;
}

Result<GraphDelta> GraphDelta::BetweenPrefix(const CsrGraph& from,
                                             const CsrGraph& to,
                                             NodeId num_nodes) {
  if (from.num_nodes() != num_nodes) {
    return Status::InvalidArgument(
        "BetweenPrefix: from.num_nodes() must equal the prefix size");
  }
  if (num_nodes > to.num_nodes()) {
    return Status::InvalidArgument("prefix larger than graph");
  }
  GraphDelta d;
  d.old_num_nodes = num_nodes;
  d.new_num_nodes = num_nodes;
  for (NodeId u = 0; u < num_nodes; ++u) {
    std::span<const NodeId> a = from.OutNeighbors(u);
    std::span<const NodeId> b = to.OutNeighbors(u);
    // Neighbor lists are ascending: the prefix restriction is a trim.
    size_t keep = static_cast<size_t>(
        std::lower_bound(b.begin(), b.end(), num_nodes) - b.begin());
    DiffAdjacency(u, a, b.subspan(0, keep), &d.removed, &d.added);
  }
  return d;
}

std::vector<int32_t> GraphDelta::OutDegreeDelta() const {
  std::vector<int32_t> delta(new_num_nodes, 0);
  for (const Edge& e : added) {
    if (e.src < new_num_nodes) ++delta[e.src];
  }
  for (const Edge& e : removed) {
    if (e.src < new_num_nodes) --delta[e.src];
  }
  return delta;
}

std::vector<uint8_t> GraphDelta::DirtyFrontier(const CsrGraph& to) const {
  QRANK_DCHECK(to.num_nodes() == new_num_nodes);
  std::vector<uint8_t> dirty(new_num_nodes, 0);
  // Pages born since the old snapshot start from nothing: always dirty.
  for (NodeId u = old_num_nodes; u < new_num_nodes; ++u) dirty[u] = 1;
  // Endpoints of every changed edge: the source's out-link set and the
  // target's in-link set both changed.
  for (const Edge& e : added) {
    if (e.src < new_num_nodes) dirty[e.src] = 1;
    if (e.dst < new_num_nodes) dirty[e.dst] = 1;
  }
  for (const Edge& e : removed) {
    if (e.src < new_num_nodes) dirty[e.src] = 1;
    if (e.dst < new_num_nodes) dirty[e.dst] = 1;
  }
  // An out-degree change rescales the share x/c a page pushes to *all*
  // its out-neighbors, so those rows' pull inputs changed too.
  std::vector<int32_t> degree_delta = OutDegreeDelta();
  for (NodeId u = 0; u < new_num_nodes; ++u) {
    if (degree_delta[u] == 0) continue;
    for (NodeId v : to.OutNeighbors(u)) dirty[v] = 1;
  }
  return dirty;
}

Result<CsrGraph> CsrGraph::ApplyDelta(const GraphDelta& delta) const {
  if (delta.old_num_nodes != num_nodes_) {
    return Status::InvalidArgument(
        "delta.old_num_nodes does not match this graph");
  }
  // Strictly increasing: a repeated edit would otherwise duplicate an
  // entry, or balance the dropped-row edge count with a repeat.
  const auto strictly_sorted = [](const std::vector<Edge>& edges) {
    return std::adjacent_find(edges.begin(), edges.end(),
                              [](const Edge& a, const Edge& b) {
                                return !(a < b);
                              }) == edges.end();
  };
  if (!strictly_sorted(delta.added) || !strictly_sorted(delta.removed)) {
    return Status::InvalidArgument(
        "delta edge lists must be sorted without duplicates");
  }
  const NodeId n_new = delta.new_num_nodes;
  for (const Edge& e : delta.added) {
    if (e.src >= n_new || e.dst >= n_new) {
      return Status::InvalidArgument("added edge endpoint out of node range");
    }
    if (e.src == e.dst) {
      return Status::InvalidArgument("added edge is a self-loop");
    }
  }

  CsrGraph out;
  out.num_nodes_ = n_new;
  QRANK_RETURN_NOT_OK(SpliceRows(offsets_, dst_, num_nodes_, n_new,
                                 delta.added, delta.removed, &out.offsets_,
                                 &out.dst_));

  // Patch the cached transpose instead of discarding it: the successor
  // graph's in-link view is the old one spliced with the same delta keyed
  // by (dst, src). Engines on the new graph then skip the O(E)
  // counting-scatter rebuild.
  if (transpose_->ready.load(std::memory_order_acquire)) {
    const TransposeCache& old_t = transpose_->cache;
    auto state = std::make_shared<TransposeState>();
    TransposeCache& nt = state->cache;
    // The forward splice validated the delta, whose lists hold no
    // repeats, against the forward arrays, which the cached transpose
    // mirrors edge for edge, so this side cannot fail.
    const Status patched = SpliceRows(
        old_t.offsets, old_t.src, num_nodes_, n_new, Transposed(delta.added),
        Transposed(delta.removed), &nt.offsets, &nt.src);
    QRANK_CHECK(patched.ok())
        << "ApplyDelta transpose splice failed: " << patched.ToString();
    state->ready.store(true, std::memory_order_release);
    out.transpose_ = std::move(state);
  }
  QRANK_AUDIT1(out.offsets_.front() == 0 &&
               out.offsets_.back() == out.dst_.size())
      << "ApplyDelta produced an inconsistent offset array";
  QRANK_AUDIT1(out.dst_.size() + delta.removed.size() ==
               dst_.size() + delta.added.size())
      << "ApplyDelta edge count does not match base + delta";
  if constexpr (kAuditLevel >= 2) {
    const Status audit = out.CheckConsistency();
    QRANK_CHECK(audit.ok())
        << "ApplyDelta produced an inconsistent CSR: " << audit.ToString();
  }
  return out;
}

}  // namespace qrank

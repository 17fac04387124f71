#include "graph/csr_graph.h"

#include <algorithm>
#include <atomic>

#include "common/logging.h"
#include "common/parallel_for.h"
#include "graph/reorder.h"

namespace qrank {

namespace {

// Parallelism only pays for its fan-out cost on large graphs; below this
// edge count every CSR routine stays on the plain serial path.
constexpr size_t kParallelEdgeThreshold = 1 << 16;

// Compile-time audit level (see common/logging.h and src/audit/):
// level 2 re-validates the full structure after every mutation.
constexpr int kAuditLevel = QRANK_AUDIT_LEVEL;

}  // namespace

Result<CsrGraph> CsrGraph::FromEdgeList(const EdgeList& edges) {
  EdgeList sorted = edges;
  sorted.SortAndDedup(/*drop_self_loops=*/true);

  CsrGraph g;
  g.num_nodes_ = sorted.num_nodes();
  g.offsets_.assign(static_cast<size_t>(g.num_nodes_) + 1, 0);
  const std::vector<Edge>& e = sorted.edges();

  for (const Edge& edge : e) {
    if (edge.src >= g.num_nodes_ || edge.dst >= g.num_nodes_) {
      return Status::InvalidArgument("edge endpoint out of node range");
    }
  }

  if (e.size() < kParallelEdgeThreshold) {
    g.dst_.reserve(e.size());
    for (const Edge& edge : e) {
      ++g.offsets_[edge.src + 1];
      g.dst_.push_back(edge.dst);
    }
  } else {
    // Degree counting races across block boundaries that split one
    // source's run; integer atomics keep the counts exact (and thus
    // thread-count independent).
    ParallelForBlocks(e.size(), [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) {
        std::atomic_ref<size_t>(g.offsets_[e[i].src + 1]).fetch_add(
            1, std::memory_order_relaxed);
      }
    });
    // SortAndDedup already put edges in CSR order, so dst_ is a straight
    // per-index copy.
    g.dst_.resize(e.size());
    ParallelFor(e.size(), [&](size_t i) { g.dst_[i] = e[i].dst; });
  }

  for (size_t i = 1; i < g.offsets_.size(); ++i) {
    g.offsets_[i] += g.offsets_[i - 1];
  }
  if constexpr (kAuditLevel >= 2) {
    const Status audit = g.CheckConsistency();
    QRANK_CHECK(audit.ok())
        << "FromEdgeList built an inconsistent CSR: " << audit.ToString();
  }
  return g;
}

Result<CsrGraph> CsrGraph::FromEdges(NodeId num_nodes,
                                     const std::vector<Edge>& edges) {
  EdgeList list(num_nodes);
  list.Reserve(edges.size());
  for (const Edge& e : edges) {
    if (e.src >= num_nodes || e.dst >= num_nodes) {
      return Status::InvalidArgument("edge endpoint out of node range");
    }
    list.Add(e.src, e.dst);
  }
  list.EnsureNodes(num_nodes);
  return FromEdgeList(list);
}

void CsrGraph::EnsureTranspose() const {
  TransposeState& state = *transpose_;
  if (state.ready.load(std::memory_order_acquire)) return;
  // call_once serializes concurrent first builds; losers block until the
  // winner finishes and then observe the complete cache.
  std::call_once(state.once, [&] {
    BuildTransposeCache(&state.cache);
    if constexpr (kAuditLevel >= 2) {
      // Validate before publishing; the helper reads the cache directly
      // (not through InNeighbors), so no call_once re-entry.
      const Status audit = CheckTransposeAgreement(state.cache);
      QRANK_CHECK(audit.ok())
          << "transpose build produced a cache that disagrees with the "
          << "forward arrays: " << audit.ToString();
    }
    state.ready.store(true, std::memory_order_release);
  });
}

void CsrGraph::BuildTransposeCache(TransposeCache* cache) const {
  cache->offsets.assign(static_cast<size_t>(num_nodes_) + 1, 0);
  cache->src.resize(dst_.size());

  if (dst_.size() < kParallelEdgeThreshold) {
    for (NodeId v : dst_) {
      ++cache->offsets[v + 1];
    }
    for (size_t i = 1; i < cache->offsets.size(); ++i) {
      cache->offsets[i] += cache->offsets[i - 1];
    }
    std::vector<size_t> cursor(cache->offsets.begin(),
                               cache->offsets.end() - 1);
    for (NodeId u = 0; u < num_nodes_; ++u) {
      for (size_t i = offsets_[u]; i < offsets_[u + 1]; ++i) {
        cache->src[cursor[dst_[i]]++] = u;
      }
    }
  } else {
    ParallelForBlocks(dst_.size(), [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) {
        std::atomic_ref<size_t>(cache->offsets[dst_[i] + 1]).fetch_add(
            1, std::memory_order_relaxed);
      }
    });
    for (size_t i = 1; i < cache->offsets.size(); ++i) {
      cache->offsets[i] += cache->offsets[i - 1];
    }
    // Scatter with per-bucket atomic cursors lands sources in an order
    // that depends on scheduling; the per-bucket sort below restores the
    // ascending-source order the serial path produces, making the final
    // arrays identical for every thread count.
    std::vector<size_t> cursor(cache->offsets.begin(),
                               cache->offsets.end() - 1);
    ParallelForBlocks(static_cast<size_t>(num_nodes_),
                      [&](size_t lo, size_t hi) {
      for (size_t u = lo; u < hi; ++u) {
        for (size_t i = offsets_[u]; i < offsets_[u + 1]; ++i) {
          size_t pos = std::atomic_ref<size_t>(cursor[dst_[i]])
                           .fetch_add(1, std::memory_order_relaxed);
          cache->src[pos] = static_cast<NodeId>(u);
        }
      }
    });
    ParallelForBlocks(static_cast<size_t>(num_nodes_),
                      [&](size_t lo, size_t hi) {
      for (size_t v = lo; v < hi; ++v) {
        std::sort(cache->src.begin() + cache->offsets[v],
                  cache->src.begin() + cache->offsets[v + 1]);
      }
    });
  }
}

std::span<const size_t> CsrGraph::in_offsets() const {
  EnsureTranspose();
  return transpose_->cache.offsets;
}

std::span<const NodeId> CsrGraph::in_sources() const {
  EnsureTranspose();
  return transpose_->cache.src;
}

std::span<const NodeId> CsrGraph::InNeighbors(NodeId u) const {
  QRANK_DCHECK(u < num_nodes_);
  EnsureTranspose();
  const TransposeCache& cache = transpose_->cache;
  return {cache.src.data() + cache.offsets[u],
          cache.src.data() + cache.offsets[u + 1]};
}

uint32_t CsrGraph::InDegree(NodeId u) const {
  EnsureTranspose();
  const TransposeCache& cache = transpose_->cache;
  return static_cast<uint32_t>(cache.offsets[u + 1] - cache.offsets[u]);
}

std::vector<uint32_t> CsrGraph::ComputeInDegrees() const {
  std::vector<uint32_t> deg(num_nodes_, 0);
  for (NodeId v : dst_) ++deg[v];
  return deg;
}

std::vector<NodeId> CsrGraph::DanglingNodes() const {
  std::vector<NodeId> out;
  for (NodeId u = 0; u < num_nodes_; ++u) {
    if (OutDegree(u) == 0) out.push_back(u);
  }
  return out;
}

size_t CsrGraph::CountDanglingNodes() const {
  size_t count = 0;
  for (NodeId u = 0; u < num_nodes_; ++u) {
    if (OutDegree(u) == 0) ++count;
  }
  return count;
}

bool CsrGraph::HasEdge(NodeId u, NodeId v) const {
  if (u >= num_nodes_) return false;
  auto nbrs = OutNeighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

Status CsrGraph::CheckConsistency(bool check_transpose) const {
  const size_t n = num_nodes_;
  if (n == 0) {
    if (!dst_.empty()) {
      return Status::InvalidArgument("zero nodes but nonzero edge array");
    }
    return Status::OK();
  }
  if (offsets_.size() != n + 1) {
    return Status::InvalidArgument(
        "offset array size " + std::to_string(offsets_.size()) +
        " != num_nodes + 1 = " + std::to_string(n + 1));
  }
  if (offsets_[0] != 0) {
    return Status::InvalidArgument("offsets[0] != 0");
  }
  for (size_t u = 0; u < n; ++u) {
    if (offsets_[u + 1] < offsets_[u]) {
      return Status::InvalidArgument("offsets not monotone at node " +
                                     std::to_string(u));
    }
  }
  if (offsets_[n] != dst_.size()) {
    return Status::InvalidArgument("offsets total != num_edges");
  }
  for (size_t u = 0; u < n; ++u) {
    for (size_t i = offsets_[u]; i < offsets_[u + 1]; ++i) {
      if (dst_[i] >= n) {
        return Status::InvalidArgument("edge target out of range at node " +
                                       std::to_string(u));
      }
      if (dst_[i] == u) {
        return Status::InvalidArgument("self-loop at node " +
                                       std::to_string(u));
      }
      if (i > offsets_[u] && dst_[i] <= dst_[i - 1]) {
        return Status::InvalidArgument("adjacency not strictly ascending "
                                       "at node " +
                                       std::to_string(u));
      }
    }
  }
  if (check_transpose && has_transpose()) {
    return CheckTransposeAgreement(transpose_->cache);
  }
  return Status::OK();
}

Status CsrGraph::CheckTransposeAgreement(const TransposeCache& cache) const {
  const size_t n = num_nodes_;
  if (cache.offsets.size() != n + 1 || cache.offsets[0] != 0 ||
      cache.offsets[n] != cache.src.size() ||
      cache.src.size() != dst_.size()) {
    return Status::InvalidArgument("transpose cache shape mismatch");
  }
  std::vector<uint32_t> want_indeg = ComputeInDegrees();
  for (size_t v = 0; v < n; ++v) {
    if (cache.offsets[v + 1] < cache.offsets[v]) {
      return Status::InvalidArgument("transpose offsets not monotone");
    }
    const size_t lo = cache.offsets[v];
    const size_t hi = cache.offsets[v + 1];
    if (hi - lo != want_indeg[v]) {
      return Status::InvalidArgument(
          "transpose in-degree disagrees with forward arrays at node " +
          std::to_string(v));
    }
    for (size_t i = lo; i < hi; ++i) {
      const NodeId u = cache.src[i];
      if (u >= n || !HasEdge(u, static_cast<NodeId>(v))) {
        return Status::InvalidArgument(
            "stale transpose: cached in-edge absent from forward graph "
            "at node " +
            std::to_string(v));
      }
      if (i > lo && u <= cache.src[i - 1]) {
        return Status::InvalidArgument(
            "transpose in-adjacency not strictly ascending at node " +
            std::to_string(v));
      }
    }
  }
  return Status::OK();
}

CsrGraph CsrGraph::Transpose() const {
  EnsureTranspose();
  CsrGraph t;
  t.num_nodes_ = num_nodes_;
  t.offsets_ = transpose_->cache.offsets;
  t.dst_ = transpose_->cache.src;
  return t;
}

Result<CsrGraph> CsrGraph::Permute(const std::vector<NodeId>& perm) const {
  QRANK_RETURN_NOT_OK(ValidatePermutation(perm, num_nodes_));
  CsrGraph g;
  g.num_nodes_ = num_nodes_;
  g.offsets_.assign(static_cast<size_t>(num_nodes_) + 1, 0);
  g.dst_.resize(dst_.size());
  // Degrees are invariant under relabeling: new row perm[u] has u's
  // out-degree. Each new row is written by exactly one old node, so the
  // fill parallelizes over old ids with disjoint writes.
  for (NodeId u = 0; u < num_nodes_; ++u) {
    g.offsets_[perm[u] + 1] = OutDegree(u);
  }
  for (size_t i = 1; i < g.offsets_.size(); ++i) {
    g.offsets_[i] += g.offsets_[i - 1];
  }
  ParallelForBlocks(static_cast<size_t>(num_nodes_), [&](size_t lo,
                                                         size_t hi) {
    for (size_t u = lo; u < hi; ++u) {
      size_t pos = g.offsets_[perm[u]];
      const size_t row_start = pos;
      for (NodeId v : OutNeighbors(static_cast<NodeId>(u))) {
        g.dst_[pos++] = perm[v];
      }
      // Relabeling scrambles the ascending order; restore it per row.
      std::sort(g.dst_.begin() + row_start, g.dst_.begin() + pos);
    }
  });
  if constexpr (kAuditLevel >= 2) {
    const Status audit = g.CheckConsistency();
    QRANK_CHECK(audit.ok())
        << "Permute built an inconsistent CSR: " << audit.ToString();
  }
  return g;
}

}  // namespace qrank

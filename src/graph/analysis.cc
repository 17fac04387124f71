#include "graph/analysis.h"

#include <algorithm>
#include <deque>

#include "common/rng.h"

namespace qrank {

std::map<uint32_t, uint64_t> InDegreeDistribution(const CsrGraph& g) {
  std::map<uint32_t, uint64_t> dist;
  for (uint32_t d : g.ComputeInDegrees()) ++dist[d];
  return dist;
}

std::map<uint32_t, uint64_t> OutDegreeDistribution(const CsrGraph& g) {
  std::map<uint32_t, uint64_t> dist;
  for (NodeId u = 0; u < g.num_nodes(); ++u) ++dist[g.OutDegree(u)];
  return dist;
}

Result<PowerLawFit> FitDegreePowerLaw(
    const std::map<uint32_t, uint64_t>& dist) {
  std::vector<double> x, y;
  for (const auto& [degree, count] : dist) {
    if (degree > 0 && count > 0) {
      x.push_back(static_cast<double>(degree));
      y.push_back(static_cast<double>(count));
    }
  }
  return FitPowerLaw(x, y);
}

SccResult ComputeScc(const CsrGraph& g) {
  const NodeId n = g.num_nodes();
  SccResult result;
  result.component.assign(n, 0);
  if (n == 0) return result;

  // Iterative Tarjan with an explicit DFS stack.
  constexpr uint32_t kUnvisited = static_cast<uint32_t>(-1);
  std::vector<uint32_t> index(n, kUnvisited);
  std::vector<uint32_t> lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<NodeId> scc_stack;
  scc_stack.reserve(n);

  struct Frame {
    NodeId node;
    size_t next_edge;  // index into OutNeighbors(node)
  };
  std::vector<Frame> dfs;
  uint32_t next_index = 0;

  for (NodeId root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    dfs.push_back(Frame{root, 0});
    index[root] = lowlink[root] = next_index++;
    scc_stack.push_back(root);
    on_stack[root] = true;

    while (!dfs.empty()) {
      Frame& frame = dfs.back();
      NodeId u = frame.node;
      auto nbrs = g.OutNeighbors(u);
      if (frame.next_edge < nbrs.size()) {
        NodeId v = nbrs[frame.next_edge++];
        if (index[v] == kUnvisited) {
          index[v] = lowlink[v] = next_index++;
          scc_stack.push_back(v);
          on_stack[v] = true;
          dfs.push_back(Frame{v, 0});
        } else if (on_stack[v]) {
          lowlink[u] = std::min(lowlink[u], index[v]);
        }
      } else {
        if (lowlink[u] == index[u]) {
          uint32_t comp = result.num_components++;
          NodeId w;
          do {
            w = scc_stack.back();
            scc_stack.pop_back();
            on_stack[w] = false;
            result.component[w] = comp;
          } while (w != u);
        }
        dfs.pop_back();
        if (!dfs.empty()) {
          NodeId parent = dfs.back().node;
          lowlink[parent] = std::min(lowlink[parent], lowlink[u]);
        }
      }
    }
  }

  result.component_size.assign(result.num_components, 0);
  for (NodeId u = 0; u < n; ++u) ++result.component_size[result.component[u]];
  uint32_t best = 0;
  for (uint32_t c = 0; c < result.num_components; ++c) {
    if (result.component_size[c] > result.component_size[best]) best = c;
  }
  result.largest_component = best;
  return result;
}

namespace {

// Marks all nodes reachable from `seeds` in graph `g`.
std::vector<bool> ReachableFrom(const CsrGraph& g,
                                const std::vector<NodeId>& seeds) {
  std::vector<bool> seen(g.num_nodes(), false);
  std::deque<NodeId> queue;
  for (NodeId s : seeds) {
    if (!seen[s]) {
      seen[s] = true;
      queue.push_back(s);
    }
  }
  while (!queue.empty()) {
    NodeId u = queue.front();
    queue.pop_front();
    for (NodeId v : g.OutNeighbors(u)) {
      if (!seen[v]) {
        seen[v] = true;
        queue.push_back(v);
      }
    }
  }
  return seen;
}

}  // namespace

BowTieResult ComputeBowTie(const CsrGraph& g) {
  const NodeId n = g.num_nodes();
  BowTieResult result;
  result.region.assign(n, BowTieRegion::kDisconnected);
  if (n == 0) return result;

  SccResult scc = ComputeScc(g);
  std::vector<NodeId> core_nodes;
  for (NodeId u = 0; u < n; ++u) {
    if (scc.component[u] == scc.largest_component) core_nodes.push_back(u);
  }

  std::vector<bool> fwd = ReachableFrom(g, core_nodes);
  CsrGraph gt = g.Transpose();
  std::vector<bool> bwd = ReachableFrom(gt, core_nodes);

  // Weakly-connected neighborhood of CORE ∪ IN ∪ OUT distinguishes
  // tendrils from fully disconnected pieces. Build undirected reachability
  // from the union.
  std::vector<NodeId> union_nodes;
  for (NodeId u = 0; u < n; ++u) {
    if (fwd[u] || bwd[u]) union_nodes.push_back(u);
  }
  // Undirected BFS: expand over both g and gt.
  std::vector<bool> weakly(n, false);
  std::deque<NodeId> queue;
  for (NodeId u : union_nodes) {
    weakly[u] = true;
    queue.push_back(u);
  }
  while (!queue.empty()) {
    NodeId u = queue.front();
    queue.pop_front();
    for (NodeId v : g.OutNeighbors(u)) {
      if (!weakly[v]) {
        weakly[v] = true;
        queue.push_back(v);
      }
    }
    for (NodeId v : gt.OutNeighbors(u)) {
      if (!weakly[v]) {
        weakly[v] = true;
        queue.push_back(v);
      }
    }
  }

  for (NodeId u = 0; u < n; ++u) {
    BowTieRegion r;
    if (fwd[u] && bwd[u]) {
      r = BowTieRegion::kCore;
    } else if (bwd[u]) {
      r = BowTieRegion::kIn;  // reaches the core (via transpose search)
    } else if (fwd[u]) {
      r = BowTieRegion::kOut;
    } else if (weakly[u]) {
      r = BowTieRegion::kTendrils;
    } else {
      r = BowTieRegion::kDisconnected;
    }
    result.region[u] = r;
    switch (r) {
      case BowTieRegion::kCore:
        ++result.core_size;
        break;
      case BowTieRegion::kIn:
        ++result.in_size;
        break;
      case BowTieRegion::kOut:
        ++result.out_size;
        break;
      case BowTieRegion::kTendrils:
        ++result.tendrils_size;
        break;
      case BowTieRegion::kDisconnected:
        ++result.disconnected_size;
        break;
    }
  }
  return result;
}

std::vector<uint32_t> BfsDistances(const CsrGraph& g, NodeId source) {
  std::vector<uint32_t> dist(g.num_nodes(), kUnreachable);
  if (source >= g.num_nodes()) return dist;
  std::deque<NodeId> queue;
  dist[source] = 0;
  queue.push_back(source);
  while (!queue.empty()) {
    NodeId u = queue.front();
    queue.pop_front();
    for (NodeId v : g.OutNeighbors(u)) {
      if (dist[v] == kUnreachable) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

uint64_t CountReachable(const CsrGraph& g, NodeId source) {
  uint64_t count = 0;
  for (uint32_t d : BfsDistances(g, source)) {
    if (d != kUnreachable) ++count;
  }
  return count;
}

double AverageDegree(const CsrGraph& g) {
  if (g.num_nodes() == 0) return 0.0;
  return static_cast<double>(g.num_edges()) /
         static_cast<double>(g.num_nodes());
}

double Reciprocity(const CsrGraph& g) {
  if (g.num_edges() == 0) return 0.0;
  uint64_t reciprocal = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.OutNeighbors(u)) {
      if (g.HasEdge(v, u)) ++reciprocal;
    }
  }
  return static_cast<double>(reciprocal) /
         static_cast<double>(g.num_edges());
}

Result<DiameterEstimate> EstimateDiameter(const CsrGraph& g,
                                          size_t num_samples, uint64_t seed,
                                          double quantile) {
  if (g.num_nodes() == 0) {
    return Status::InvalidArgument("diameter of an empty graph");
  }
  if (num_samples == 0) {
    return Status::InvalidArgument("need at least one sample source");
  }
  if (quantile <= 0.0 || quantile > 1.0) {
    return Status::InvalidArgument("quantile must be in (0, 1]");
  }

  Rng rng(seed);
  DiameterEstimate estimate;
  // Distance histogram over reachable pairs (distance > 0).
  std::vector<uint64_t> counts;
  double sum = 0.0;
  for (size_t s = 0; s < num_samples; ++s) {
    NodeId source = static_cast<NodeId>(rng.UniformUint64(g.num_nodes()));
    for (uint32_t d : BfsDistances(g, source)) {
      if (d == kUnreachable || d == 0) continue;
      if (d >= counts.size()) counts.resize(d + 1, 0);
      ++counts[d];
      sum += d;
      ++estimate.pairs_sampled;
      estimate.max_distance_seen = std::max(estimate.max_distance_seen, d);
    }
  }
  if (estimate.pairs_sampled == 0) {
    // No reachable pairs (edgeless or fully isolated samples).
    return estimate;
  }
  estimate.mean_distance = sum / static_cast<double>(estimate.pairs_sampled);
  uint64_t target = static_cast<uint64_t>(
      quantile * static_cast<double>(estimate.pairs_sampled));
  if (target == 0) target = 1;
  uint64_t cum = 0;
  for (uint32_t d = 0; d < counts.size(); ++d) {
    cum += counts[d];
    if (cum >= target) {
      estimate.effective_diameter = d;
      break;
    }
  }
  return estimate;
}

}  // namespace qrank

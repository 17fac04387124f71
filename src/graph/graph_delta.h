// Structural diff between consecutive graph snapshots.
//
// The paper's estimator runs over a *series* of crawl snapshots whose
// link structures overlap almost entirely (Section 8.1: 2.7 M pages
// common to four crawls). GraphDelta captures exactly what changed
// between two CsrGraphs — added/removed edges, node-count change,
// per-node out-degree deltas — so the snapshot pipeline can patch the
// previous CSR (CsrGraph::ApplyDelta) and warm-start PageRank from the
// previous vector instead of rebuilding and re-solving from scratch.
//
// Deltas are exact set differences: `added` holds edges present only in
// the newer graph, `removed` edges present only in the older one, both
// strictly sorted by (src, dst) (no edge listed twice). A delta produced by Between()/BetweenPrefix()
// always satisfies ApplyDelta's consistency contract.

#ifndef QRANK_GRAPH_GRAPH_DELTA_H_
#define QRANK_GRAPH_GRAPH_DELTA_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "graph/csr_graph.h"

namespace qrank {

struct GraphDelta {
  NodeId old_num_nodes = 0;
  NodeId new_num_nodes = 0;
  /// Edges in the new graph only, sorted by (src, dst).
  std::vector<Edge> added;
  /// Edges in the old graph only, sorted by (src, dst). When the node
  /// set shrinks, every edge incident to a dropped node appears here.
  std::vector<Edge> removed;

  bool empty() const {
    return added.empty() && removed.empty() &&
           old_num_nodes == new_num_nodes;
  }
  size_t num_changes() const { return added.size() + removed.size(); }

  /// The exact delta from `from` to `to` (any two graphs; O(E)).
  static GraphDelta Between(const CsrGraph& from, const CsrGraph& to);

  /// The delta from `from` to the subgraph of `to` induced on the id
  /// prefix [0, num_nodes) — the SnapshotSeries common-page view —
  /// without materializing the induced graph. Requires
  /// from.num_nodes() == num_nodes <= to.num_nodes().
  static Result<GraphDelta> BetweenPrefix(const CsrGraph& from,
                                          const CsrGraph& to,
                                          NodeId num_nodes);

  /// Per-node out-degree change, indexed by new-graph id
  /// (size new_num_nodes). Dropped nodes' degrees are not represented.
  std::vector<int32_t> OutDegreeDelta() const;

  /// The dirty frontier for incremental PageRank over `to` (which must
  /// be the delta's new graph): nonzero for pages whose in- or out-links
  /// changed, pages born since the old snapshot, and out-neighbors of
  /// any page whose out-degree changed (their pulled share x/c changed
  /// even though their own links did not). Size new_num_nodes.
  std::vector<uint8_t> DirtyFrontier(const CsrGraph& to) const;
};

}  // namespace qrank

#endif  // QRANK_GRAPH_GRAPH_DELTA_H_

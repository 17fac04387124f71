#include "graph/graph_delta.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "common/rng.h"
#include "graph/generators.h"

namespace qrank {
namespace {

CsrGraph Graph(NodeId n, const std::vector<Edge>& edges) {
  return CsrGraph::FromEdges(n, edges).value();
}

// Random evolution step: drop ~drop_count existing edges, add
// ~add_count new ones, optionally grow the node set.
CsrGraph Evolve(const CsrGraph& g, NodeId new_nodes, int add_count,
                int drop_count, Rng* rng) {
  std::vector<Edge> edges;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.OutNeighbors(u)) edges.push_back({u, v});
  }
  for (int k = 0; k < drop_count && !edges.empty(); ++k) {
    size_t idx = rng->UniformUint64(edges.size());
    edges.erase(edges.begin() + static_cast<long>(idx));
  }
  const NodeId n = g.num_nodes() + new_nodes;
  for (int k = 0; k < add_count; ++k) {
    NodeId u = static_cast<NodeId>(rng->UniformUint64(n));
    NodeId v = static_cast<NodeId>(rng->UniformUint64(n));
    if (u != v) edges.push_back({u, v});
  }
  return Graph(n, edges);
}

// Drops nodes [n, g.num_nodes()) and every edge incident to them.
CsrGraph Shrink(const CsrGraph& g, NodeId n) {
  std::vector<Edge> edges;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : g.OutNeighbors(u)) {
      if (v < n) edges.push_back({u, v});
    }
  }
  return Graph(n, edges);
}

// A graph of `n` nodes where node u links to u+1..u+3 (where they exist).
CsrGraph Chain(NodeId n) {
  std::vector<Edge> edges;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId k = 1; k <= 3 && u + k < n; ++k) edges.push_back({u, u + k});
  }
  return Graph(n, edges);
}

// The patched graph's cached transpose, array for array, equals the
// transpose of the scratch-built successor.
void ExpectTransposeMatches(const CsrGraph& patched, const CsrGraph& next) {
  ASSERT_TRUE(patched.has_transpose());
  const CsrGraph scratch_t = next.Transpose();
  std::span<const size_t> offsets = patched.in_offsets();
  std::span<const NodeId> sources = patched.in_sources();
  EXPECT_EQ(std::vector<size_t>(offsets.begin(), offsets.end()),
            scratch_t.offsets());
  EXPECT_EQ(std::vector<NodeId>(sources.begin(), sources.end()),
            scratch_t.targets());
}

// Applies Between(from, to) to `from` with its transpose cached and
// checks both sides against the from-scratch build of `to`.
void ExpectSplicesLikeRebuild(const CsrGraph& from, const CsrGraph& to) {
  from.BuildTranspose();
  Result<CsrGraph> patched = from.ApplyDelta(GraphDelta::Between(from, to));
  ASSERT_TRUE(patched.ok()) << patched.status().ToString();
  EXPECT_EQ(patched->num_nodes(), to.num_nodes());
  EXPECT_EQ(patched->offsets(), to.offsets());
  EXPECT_EQ(patched->targets(), to.targets());
  ExpectTransposeMatches(*patched, to);
}

TEST(GraphDeltaTest, BetweenFindsAddedAndRemoved) {
  CsrGraph from = Graph(4, {{0, 1}, {1, 2}, {2, 0}});
  CsrGraph to = Graph(4, {{0, 1}, {1, 3}, {2, 0}});
  GraphDelta d = GraphDelta::Between(from, to);
  ASSERT_EQ(d.added.size(), 1u);
  EXPECT_EQ(d.added[0], (Edge{1, 3}));
  ASSERT_EQ(d.removed.size(), 1u);
  EXPECT_EQ(d.removed[0], (Edge{1, 2}));
  EXPECT_TRUE(std::is_sorted(d.added.begin(), d.added.end()));
  EXPECT_TRUE(std::is_sorted(d.removed.begin(), d.removed.end()));
}

TEST(GraphDeltaTest, IdenticalGraphsGiveEmptyDelta) {
  CsrGraph g = Graph(5, {{0, 1}, {1, 2}, {3, 4}});
  GraphDelta d = GraphDelta::Between(g, g);
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.num_changes(), 0u);
}

TEST(GraphDeltaTest, ShrinkingDeltaListsDroppedNodeEdges) {
  // Node 3 disappears: its out-edge and the edge pointing at it must
  // both be in `removed`.
  CsrGraph from = Graph(4, {{0, 1}, {1, 3}, {3, 0}});
  CsrGraph to = Graph(3, {{0, 1}});
  GraphDelta d = GraphDelta::Between(from, to);
  EXPECT_EQ(d.old_num_nodes, 4u);
  EXPECT_EQ(d.new_num_nodes, 3u);
  EXPECT_TRUE(d.added.empty());
  ASSERT_EQ(d.removed.size(), 2u);
  EXPECT_EQ(d.removed[0], (Edge{1, 3}));
  EXPECT_EQ(d.removed[1], (Edge{3, 0}));
}

TEST(GraphDeltaTest, OutDegreeDelta) {
  CsrGraph from = Graph(4, {{0, 1}, {0, 2}, {1, 2}});
  CsrGraph to = Graph(4, {{0, 1}, {1, 2}, {1, 3}, {2, 3}});
  GraphDelta d = GraphDelta::Between(from, to);
  std::vector<int32_t> dd = d.OutDegreeDelta();
  ASSERT_EQ(dd.size(), 4u);
  EXPECT_EQ(dd[0], -1);
  EXPECT_EQ(dd[1], 1);
  EXPECT_EQ(dd[2], 1);
  EXPECT_EQ(dd[3], 0);
}

TEST(GraphDeltaTest, DirtyFrontierMarksEndpointsNewNodesAndRescaledRows) {
  // 0->1 added: endpoints 0 and 1 dirty; 0's out-degree changed, so its
  // other out-neighbor 2 is dirty too (its pulled share changed). Node 3
  // untouched. Node 4 is newborn.
  CsrGraph from = Graph(4, {{0, 2}, {3, 2}});
  CsrGraph to = Graph(5, {{0, 1}, {0, 2}, {3, 2}});
  GraphDelta d = GraphDelta::Between(from, to);
  std::vector<uint8_t> dirty = d.DirtyFrontier(to);
  ASSERT_EQ(dirty.size(), 5u);
  EXPECT_TRUE(dirty[0]);
  EXPECT_TRUE(dirty[1]);
  EXPECT_TRUE(dirty[2]);
  EXPECT_FALSE(dirty[3]);  // links unchanged, degree unchanged
  EXPECT_TRUE(dirty[4]);   // new page
}

TEST(GraphDeltaTest, BetweenPrefixMatchesInducedDiff) {
  Rng rng(11);
  CsrGraph from_full =
      CsrGraph::FromEdgeList(GenerateBarabasiAlbert(300, 4, &rng).value())
          .value();
  CsrGraph to = Evolve(from_full, 40, 120, 30, &rng);
  const NodeId m = 300;
  CsrGraph from = CsrGraph::FromEdges(m, [&] {
                    std::vector<Edge> e;
                    for (NodeId u = 0; u < m; ++u) {
                      for (NodeId v : from_full.OutNeighbors(u)) {
                        if (v < m) e.push_back({u, v});
                      }
                    }
                    return e;
                  }()).value();
  CsrGraph induced_to = CsrGraph::FromEdges(m, [&] {
                          std::vector<Edge> e;
                          for (NodeId u = 0; u < m; ++u) {
                            for (NodeId v : to.OutNeighbors(u)) {
                              if (v < m) e.push_back({u, v});
                            }
                          }
                          return e;
                        }()).value();
  Result<GraphDelta> prefix = GraphDelta::BetweenPrefix(from, to, m);
  ASSERT_TRUE(prefix.ok());
  GraphDelta oracle = GraphDelta::Between(from, induced_to);
  EXPECT_EQ(prefix->added, oracle.added);
  EXPECT_EQ(prefix->removed, oracle.removed);
}

TEST(GraphDeltaTest, BetweenPrefixValidatesSizes) {
  CsrGraph a = Graph(4, {{0, 1}});
  CsrGraph b = Graph(6, {{0, 1}});
  EXPECT_FALSE(GraphDelta::BetweenPrefix(a, b, 5).ok());  // from != prefix
  EXPECT_FALSE(GraphDelta::BetweenPrefix(b, a, 6).ok());  // prefix > to
}

TEST(ApplyDeltaTest, MatchesFromScratchRebuildOnRandomEvolution) {
  // The correctness oracle of the incremental pipeline: patching with
  // the diff must reproduce the from-scratch CSR arrays exactly, forward
  // and transpose, across growth, edge churn, and shrink steps. Each
  // step patches the previous patched graph, so the transpose is carried
  // through every step the way a snapshot series carries it.
  Rng rng(17);
  CsrGraph current =
      CsrGraph::FromEdgeList(GenerateBarabasiAlbert(200, 4, &rng).value())
          .value();
  current.BuildTranspose();
  struct Step {
    NodeId grow;
    int add, drop;
    NodeId shrink_to;  // 0: keep the node count
  };
  const Step steps[] = {{20, 60, 10, 0}, {0, 0, 40, 0}, {5, 30, 0, 0},
                        {0, 15, 15, 0},  {0, 0, 0, 180}, {0, 20, 5, 150},
                        {40, 200, 50, 0}};
  for (const Step& s : steps) {
    CsrGraph next = s.shrink_to > 0
                        ? Shrink(current, s.shrink_to)
                        : Evolve(current, s.grow, s.add, s.drop, &rng);
    if (s.shrink_to > 0 && (s.add > 0 || s.drop > 0)) {
      next = Evolve(next, 0, s.add, s.drop, &rng);
    }
    GraphDelta delta = GraphDelta::Between(current, next);
    Result<CsrGraph> patched = current.ApplyDelta(delta);
    ASSERT_TRUE(patched.ok()) << patched.status().ToString();
    EXPECT_EQ(patched->offsets(), next.offsets());
    EXPECT_EQ(patched->targets(), next.targets());
    ExpectTransposeMatches(*patched, next);
    current = std::move(*patched);
  }
}

TEST(ApplyDeltaTest, ChangesInFirstAndLastRow) {
  // The splice copies the unchanged rows between the edits: an edit in
  // row 0 leaves no run before it, one in row n-1 none after it.
  const CsrGraph g = Chain(50);
  std::vector<Edge> edges;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.OutNeighbors(u)) {
      if (u != 0 || v != 2) edges.push_back({u, v});  // drop 0->2
    }
  }
  edges.push_back({0, 40});
  edges.push_back({49, 0});
  edges.push_back({49, 7});
  ExpectSplicesLikeRebuild(g, Graph(50, edges));
  // The reverse direction: row n-1 loses its edges, row 0 regains 0->2.
  edges.push_back({0, 49});
  ExpectSplicesLikeRebuild(Graph(50, edges), g);
}

TEST(ApplyDeltaTest, NewbornRowsReceiveAdditions) {
  // Rows [30, 40) are born; some link out, some are linked to, the rest
  // stay empty between them.
  const CsrGraph g = Chain(30);
  std::vector<Edge> edges;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.OutNeighbors(u)) edges.push_back({u, v});
  }
  edges.push_back({31, 0});
  edges.push_back({31, 35});
  edges.push_back({35, 12});
  edges.push_back({39, 31});
  edges.push_back({4, 33});
  ExpectSplicesLikeRebuild(g, Graph(40, edges));
}

TEST(ApplyDeltaTest, AdditionsOnlyAndRemovalsOnly) {
  Rng rng(29);
  const CsrGraph g =
      CsrGraph::FromEdgeList(GenerateBarabasiAlbert(400, 4, &rng).value())
          .value();
  const CsrGraph grown = Evolve(g, 0, 80, 0, &rng);
  const GraphDelta adds = GraphDelta::Between(g, grown);
  ASSERT_FALSE(adds.added.empty());
  ASSERT_TRUE(adds.removed.empty());
  ExpectSplicesLikeRebuild(g, grown);

  const CsrGraph thinned = Evolve(g, 0, 0, 80, &rng);
  const GraphDelta removes = GraphDelta::Between(g, thinned);
  ASSERT_TRUE(removes.added.empty());
  ASSERT_FALSE(removes.removed.empty());
  ExpectSplicesLikeRebuild(g, thinned);
}

TEST(ApplyDeltaTest, RejectsEdgeToDroppedNodeInsideUnchangedRun) {
  // Node 999 is dropped. The delta removes 998->999 (the only changed
  // row) but not 500->999, which sits in the middle of the unchanged run
  // [0, 998): only a scan of the copied targets can see it. The edge
  // counts still balance, so the final tally check cannot.
  std::vector<Edge> edges;
  for (NodeId u = 0; u + 1 < 1000; ++u) edges.push_back({u, u + 1});
  edges.push_back({500, 999});
  const CsrGraph g = Graph(1000, edges);
  GraphDelta d;
  d.old_num_nodes = 1000;
  d.new_num_nodes = 999;
  d.removed = {{998, 999}};
  EXPECT_FALSE(g.ApplyDelta(d).ok());
  g.BuildTranspose();
  EXPECT_FALSE(g.ApplyDelta(d).ok());
  d.removed = {{500, 999}, {998, 999}};
  Result<CsrGraph> patched = g.ApplyDelta(d);
  ASSERT_TRUE(patched.ok()) << patched.status().ToString();
  ExpectTransposeMatches(*patched, Shrink(g, 999));
}

TEST(ApplyDeltaTest, ShrinkingNodeSet) {
  CsrGraph from = Graph(5, {{0, 1}, {1, 4}, {4, 2}, {2, 3}});
  CsrGraph to = Graph(4, {{0, 1}, {2, 3}});
  GraphDelta d = GraphDelta::Between(from, to);
  Result<CsrGraph> patched = from.ApplyDelta(d);
  ASSERT_TRUE(patched.ok());
  EXPECT_EQ(patched->num_nodes(), 4u);
  EXPECT_EQ(patched->offsets(), to.offsets());
  EXPECT_EQ(patched->targets(), to.targets());
}

TEST(ApplyDeltaTest, PatchesTransposeInPlace) {
  Rng rng(23);
  CsrGraph current =
      CsrGraph::FromEdgeList(GenerateBarabasiAlbert(500, 5, &rng).value())
          .value();
  current.BuildTranspose();
  CsrGraph next = Evolve(current, 30, 100, 25, &rng);
  GraphDelta delta = GraphDelta::Between(current, next);
  Result<CsrGraph> patched = current.ApplyDelta(delta);
  ASSERT_TRUE(patched.ok());
  // The successor graph arrives with its transpose already built...
  EXPECT_TRUE(patched->has_transpose());
  // ...and it is identical to the scratch-built one.
  CsrGraph patched_t = patched->Transpose();
  CsrGraph scratch_t = next.Transpose();
  EXPECT_EQ(patched_t.offsets(), scratch_t.offsets());
  EXPECT_EQ(patched_t.targets(), scratch_t.targets());
}

TEST(ApplyDeltaTest, NoTransposePatchWithoutCache) {
  CsrGraph from = Graph(3, {{0, 1}});
  GraphDelta d;
  d.old_num_nodes = 3;
  d.new_num_nodes = 3;
  d.added = {{1, 2}};
  Result<CsrGraph> patched = from.ApplyDelta(d);
  ASSERT_TRUE(patched.ok());
  // Lazy build still works on demand.
  EXPECT_FALSE(patched->has_transpose());
  EXPECT_EQ(patched->InDegree(2), 1u);
}

TEST(ApplyDeltaTest, RejectsInconsistentDeltas) {
  CsrGraph g = Graph(4, {{0, 1}, {1, 2}});
  GraphDelta d;
  d.old_num_nodes = 3;  // wrong base size
  d.new_num_nodes = 4;
  EXPECT_FALSE(g.ApplyDelta(d).ok());

  d.old_num_nodes = 4;
  d.removed = {{2, 3}};  // edge does not exist
  EXPECT_FALSE(g.ApplyDelta(d).ok());

  d.removed.clear();
  d.added = {{0, 1}};  // edge already present
  EXPECT_FALSE(g.ApplyDelta(d).ok());

  d.added = {{0, 0}};  // self-loop
  EXPECT_FALSE(g.ApplyDelta(d).ok());

  d.added = {{0, 7}};  // endpoint out of range
  EXPECT_FALSE(g.ApplyDelta(d).ok());

  d.added = {{1, 3}, {0, 2}};  // not sorted
  EXPECT_FALSE(g.ApplyDelta(d).ok());
}

TEST(ApplyDeltaTest, RejectsRepeatedEdits) {
  CsrGraph g = Graph(4, {{0, 1}, {1, 2}, {3, 0}, {3, 1}});
  g.BuildTranspose();
  GraphDelta d;
  d.old_num_nodes = 4;
  d.new_num_nodes = 4;
  d.added = {{2, 0}, {2, 0}};  // would duplicate a CSR entry
  EXPECT_FALSE(g.ApplyDelta(d).ok());

  // Dropping node 3 while listing one of its edges twice: the repeat
  // balances the edge count, so only the no-duplicates rule rejects it
  // before the transpose splice sees it.
  d.added.clear();
  d.new_num_nodes = 3;
  d.removed = {{3, 0}, {3, 0}};
  Result<CsrGraph> patched = g.ApplyDelta(d);
  EXPECT_FALSE(patched.ok());
  EXPECT_EQ(patched.status().code(), StatusCode::kInvalidArgument);
}

TEST(ApplyDeltaTest, GrowsDefaultConstructedGraph) {
  // A default-constructed graph has no offsets at all, not one zero.
  const CsrGraph empty;
  GraphDelta d;
  d.old_num_nodes = 0;
  d.new_num_nodes = 3;
  d.added = {{0, 1}, {2, 0}};
  const CsrGraph expected = Graph(3, d.added);
  for (const bool with_transpose : {false, true}) {
    if (with_transpose) empty.BuildTranspose();
    Result<CsrGraph> patched = empty.ApplyDelta(d);
    ASSERT_TRUE(patched.ok()) << patched.status().ToString();
    EXPECT_EQ(patched->num_nodes(), 3u);
    EXPECT_EQ(patched->offsets(), expected.offsets());
    EXPECT_EQ(patched->targets(), expected.targets());
    EXPECT_EQ(patched->has_transpose(), with_transpose);
    if (with_transpose) ExpectTransposeMatches(*patched, expected);
  }
}

TEST(ApplyDeltaTest, ShrinkRemovingEveryEdgeOfDroppedNodesIsAccepted) {
  // Nodes 2 and 3 are dropped. 1->2 is their only incident edge and the
  // delta removes it; 0->1 stays between kept nodes.
  CsrGraph g = Graph(4, {{0, 1}, {1, 2}});
  GraphDelta d;
  d.old_num_nodes = 4;
  d.new_num_nodes = 2;
  d.removed = {{1, 2}};
  Result<CsrGraph> patched = g.ApplyDelta(d);
  ASSERT_TRUE(patched.ok()) << patched.status().ToString();
  EXPECT_EQ(patched->num_nodes(), 2u);
  EXPECT_EQ(patched->targets(), (std::vector<NodeId>{1}));
}

TEST(ApplyDeltaTest, ShrinkLeavingEdgeToDroppedNodeIsRejected) {
  // Same shrink, but the delta does not remove 1->2, which would point
  // out of the shrunk node range.
  CsrGraph g = Graph(4, {{0, 1}, {1, 2}});
  GraphDelta d;
  d.old_num_nodes = 4;
  d.new_num_nodes = 2;
  EXPECT_FALSE(g.ApplyDelta(d).ok());
  // An out-edge of a dropped node that the delta does not list.
  CsrGraph h = Graph(4, {{0, 1}, {3, 0}});
  EXPECT_FALSE(h.ApplyDelta(d).ok());
}

TEST(ApplyDeltaTest, EmptyDeltaReproducesGraph) {
  CsrGraph g = Graph(4, {{0, 1}, {1, 2}, {3, 1}});
  GraphDelta d;
  d.old_num_nodes = 4;
  d.new_num_nodes = 4;
  Result<CsrGraph> patched = g.ApplyDelta(d);
  ASSERT_TRUE(patched.ok());
  EXPECT_EQ(patched->offsets(), g.offsets());
  EXPECT_EQ(patched->targets(), g.targets());
}

}  // namespace
}  // namespace qrank

// Web-graph structure analytics: degree distributions and power-law fits
// ([3, 6] in the paper), strongly connected components and the "bow tie"
// decomposition of [6], and BFS reachability.

#ifndef QRANK_GRAPH_ANALYSIS_H_
#define QRANK_GRAPH_ANALYSIS_H_

#include <cstdint>
#include <map>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "graph/csr_graph.h"

namespace qrank {

/// degree -> number of nodes with that degree.
std::map<uint32_t, uint64_t> InDegreeDistribution(const CsrGraph& g);
std::map<uint32_t, uint64_t> OutDegreeDistribution(const CsrGraph& g);

/// Fits P(degree = d) ~ d^exponent over the positive-degree support of
/// `dist`. Returns the log-log least-squares fit.
Result<PowerLawFit> FitDegreePowerLaw(
    const std::map<uint32_t, uint64_t>& dist);

/// Strongly connected components (iterative Tarjan). component[u] is the
/// id of u's SCC; ids are in reverse topological order of the condensation
/// (i.e., component ids of successors are <= the node's own... see impl
/// note: Tarjan emits sinks first).
struct SccResult {
  std::vector<uint32_t> component;  // size num_nodes
  uint32_t num_components = 0;
  /// Id of a largest SCC (ties broken by lowest id); kInvalidComponent
  /// when the graph is empty.
  uint32_t largest_component = 0;
  std::vector<uint32_t> component_size;  // size num_components
};
SccResult ComputeScc(const CsrGraph& g);

/// Broder et al. bow-tie decomposition relative to the largest SCC.
enum class BowTieRegion : uint8_t {
  kCore = 0,      // largest SCC
  kIn = 1,        // reaches the core, not reachable from it
  kOut = 2,       // reachable from the core, does not reach it
  kTendrils = 3,  // attached to IN or OUT but neither reaches nor reached
  kDisconnected = 4,
};
struct BowTieResult {
  std::vector<BowTieRegion> region;  // size num_nodes
  uint64_t core_size = 0;
  uint64_t in_size = 0;
  uint64_t out_size = 0;
  uint64_t tendrils_size = 0;
  uint64_t disconnected_size = 0;
};
BowTieResult ComputeBowTie(const CsrGraph& g);

/// Forward BFS from `source`; returns hop distance per node
/// (kUnreachable for unreached nodes).
inline constexpr uint32_t kUnreachable = static_cast<uint32_t>(-1);
std::vector<uint32_t> BfsDistances(const CsrGraph& g, NodeId source);

/// Number of nodes reachable from `source` (including itself).
uint64_t CountReachable(const CsrGraph& g, NodeId source);

/// Mean out-degree (= mean in-degree) of the graph; 0 for empty graphs.
double AverageDegree(const CsrGraph& g);

/// Fraction of edges u->v whose reverse v->u also exists (link
/// reciprocity). 0 for edgeless graphs.
double Reciprocity(const CsrGraph& g);

/// Sampled effective-diameter estimate in the style of the "Diameter of
/// the World Wide Web" measurement the paper cites ([3]): BFS from
/// `num_samples` random sources; over all (source, reachable target)
/// pairs, report the mean distance and the `quantile` (default 0.9)
/// distance ("the effective diameter").
struct DiameterEstimate {
  double mean_distance = 0.0;
  /// Distance below which `quantile` of reachable pairs fall.
  uint32_t effective_diameter = 0;
  /// Largest finite distance seen from any sampled source.
  uint32_t max_distance_seen = 0;
  uint64_t pairs_sampled = 0;
};
/// InvalidArgument when the graph is empty or num_samples is 0.
Result<DiameterEstimate> EstimateDiameter(const CsrGraph& g,
                                          size_t num_samples, uint64_t seed,
                                          double quantile = 0.9);

}  // namespace qrank

#endif  // QRANK_GRAPH_ANALYSIS_H_

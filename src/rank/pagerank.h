// PageRank engines.
//
// Implements the metric of Section 3 of the paper:
//
//   PR(p_i) = d + (1 - d) [ PR(p_1)/c_1 + ... + PR(p_m)/c_m ]
//
// where d is the paper's damping (teleport) probability and c_j the
// out-degree of the linking page. Footnote 2 ("a page with no outgoing
// link is assumed to link to every page") is realized as uniform
// redistribution of dangling mass, without materializing O(n^2) edges.
//
// Two numeric conventions are supported:
//  * kProbability — scores form a distribution (sum to 1): the
//    random-surfer stationary distribution.
//  * kTotalMassN — scores sum to num_nodes, matching the paper's
//    "initial PageRank value 1 per page" convention used in Section 8.
//
// Engines:
//  * ComputePageRank        — Jacobi power iteration in the pull
//    formulation (per-row independent, runs on the parallel substrate;
//    scores are bit-identical for every num_threads value).
//  * ComputePageRankGaussSeidel — in-place sweeps, typically ~2x fewer
//    iterations; requires the transpose. Deliberately serial: each
//    update reads values written earlier in the same sweep, so any
//    parallel order would change the iterates. It is the independent
//    reference the equivalence tests compare the parallel engine to.
//  * ComputeAdaptivePageRank (adaptive_pagerank.h)   — [11] in the paper.
//  * ComputeExtrapolatedPageRank (extrapolation.h)   — [12] in the paper.

#ifndef QRANK_RANK_PAGERANK_H_
#define QRANK_RANK_PAGERANK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/csr_graph.h"

namespace qrank {

enum class ScaleConvention {
  kProbability,  // scores sum to 1
  kTotalMassN,   // scores sum to num_nodes (paper's Section 8 convention)
};

/// How the Jacobi pull sweep splits rows into fixed parallel blocks.
/// Either way the partition depends only on the graph and the grain —
/// never on the thread count — so scores stay bit-identical across
/// --threads values; the two partitions are distinct deterministic
/// engines (different summation order, same fixed point).
enum class SweepPartition {
  /// Equal node count per block. On power-law graphs the block holding
  /// the hubs carries most of the edges and the other threads idle.
  kNodeBalanced,
  /// Equal work per block, weighting row i by in_degree(i) + 1 (one
  /// binary search per boundary over the transpose CSR offsets).
  kEdgeBalanced,
};

/// "node" | "edge" — the names the shared --partition flag accepts.
const char* SweepPartitionName(SweepPartition partition);

/// Parses the names above; false on unknown input.
bool ParseSweepPartition(const std::string& text, SweepPartition* out);

/// Instruction-set variant of the fused pull sweep (see
/// rank/pagerank_kernel.h and DESIGN.md §5g). Scalar is the default
/// and the oracle; kSimd runs the AVX-512 fold, which folds 8 lanes
/// and carries a test-enforced <= 1e-14 per-element tolerance. Where
/// the build or hardware lacks AVX-512, kSimd clamps DOWN to scalar,
/// so both values are safe on every machine.
enum class KernelVariant {
  kScalar,  // portable reference fold
  kSimd,    // AVX-512 if the build and CPU have it, else scalar
};

/// "scalar" | "simd".
const char* KernelVariantName(KernelVariant variant);

/// Parses the names above; false on unknown input.
bool ParseKernelVariant(const std::string& text, KernelVariant* out);

struct PageRankOptions {
  /// Probability of following a link (1 - paper's d). 0.85 is the
  /// standard Brin-Page value.
  double damping = 0.85;

  /// Stop when the L1 change between successive iterates (in probability
  /// scale) drops below this.
  double tolerance = 1e-10;

  uint32_t max_iterations = 200;

  ScaleConvention scale = ScaleConvention::kProbability;

  /// Optional teleport distribution (personalized / topic-sensitive
  /// PageRank, [10] in the paper). Empty means uniform. Must have
  /// num_nodes entries summing to a positive value; it is normalized
  /// internally. Dangling mass follows the same distribution.
  std::vector<double> personalization;

  /// If true, a run that hits max_iterations without meeting tolerance
  /// returns Status::NotConverged; if false it returns the last iterate
  /// with converged=false.
  bool require_convergence = false;

  /// Optional warm-start iterate (probability or any positive scale —
  /// normalized internally). Empty means start from the teleport
  /// distribution. Must have num_nodes non-negative entries with a
  /// positive sum. The fixed point is unchanged; only the iteration
  /// count depends on the start.
  std::vector<double> initial_scores;

  /// Executor count for the Jacobi engine: 0 = the process default
  /// (SetDefaultThreads / hardware concurrency), 1 = serial on the
  /// calling thread. Scores do not depend on this value — reductions
  /// use a fixed block tree (see common/parallel_for.h).
  int num_threads = 0;

  /// Row partition of the Jacobi sweep (see SweepPartition). Edge
  /// balancing is the default: it fixes the thread-skew that node
  /// blocks suffer on hub-heavy web graphs and costs one boundary
  /// computation per solve.
  SweepPartition partition = SweepPartition::kEdgeBalanced;

  /// Pull-sweep instruction set (see KernelVariant). Scores do not
  /// depend on the thread count under either variant; kSimd matches
  /// the scalar oracle within the tolerance documented above.
  KernelVariant kernel = KernelVariant::kScalar;
};

struct PageRankResult {
  std::vector<double> scores;
  uint32_t iterations = 0;
  bool converged = false;
  /// Final L1 residual (probability scale).
  double residual = 0.0;
};

/// Jacobi power iteration. InvalidArgument on bad options
/// (damping outside [0,1), non-positive tolerance, bad personalization).
/// An empty graph yields an empty score vector.
Result<PageRankResult> ComputePageRank(const CsrGraph& graph,
                                       const PageRankOptions& options = {});

/// Gauss-Seidel sweeps over the pull formulation (uses the transpose;
/// in-place updates so later nodes see this sweep's fresh values).
/// Same contract as ComputePageRank.
Result<PageRankResult> ComputePageRankGaussSeidel(
    const CsrGraph& graph, const PageRankOptions& options = {});

}  // namespace qrank

#endif  // QRANK_RANK_PAGERANK_H_

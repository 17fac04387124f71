#include "rank/pagerank.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "audit/audit.h"
#include "common/logging.h"
#include "common/parallel_for.h"
#include "rank/internal.h"
#include "rank/pagerank_kernel.h"
#include "rank/rank_vector.h"

namespace qrank {

namespace {

// Compile-time audit level (see common/logging.h and src/audit/): 1 runs
// the rank.* vector invariants on every finished result, 2 additionally
// re-checks the engine.residual fixed-point contract on declared
// convergence.
constexpr int kAuditLevel = QRANK_AUDIT_LEVEL;

}  // namespace

const char* SweepPartitionName(SweepPartition partition) {
  return partition == SweepPartition::kNodeBalanced ? "node" : "edge";
}

bool ParseSweepPartition(const std::string& text, SweepPartition* out) {
  if (text == "node") {
    *out = SweepPartition::kNodeBalanced;
  } else if (text == "edge") {
    *out = SweepPartition::kEdgeBalanced;
  } else {
    return false;
  }
  return true;
}

const char* KernelVariantName(KernelVariant variant) {
  switch (variant) {
    case KernelVariant::kScalar:
      return "scalar";
    case KernelVariant::kSimd:
      return "simd";
  }
  return "scalar";
}

bool ParseKernelVariant(const std::string& text, KernelVariant* out) {
  if (text == "scalar") {
    *out = KernelVariant::kScalar;
  } else if (text == "simd") {
    *out = KernelVariant::kSimd;
  } else {
    return false;
  }
  return true;
}

namespace rank_internal {

Status ValidateOptions(const CsrGraph& graph, const PageRankOptions& options) {
  if (options.damping < 0.0 || options.damping >= 1.0) {
    return Status::InvalidArgument("damping must be in [0, 1)");
  }
  if (options.tolerance <= 0.0) {
    return Status::InvalidArgument("tolerance must be positive");
  }
  if (options.max_iterations == 0) {
    return Status::InvalidArgument("max_iterations must be >= 1");
  }
  if (!options.personalization.empty()) {
    if (options.personalization.size() != graph.num_nodes()) {
      return Status::InvalidArgument(
          "personalization vector size must equal num_nodes");
    }
    double sum = 0.0;
    for (double w : options.personalization) {
      if (w < 0.0 || !std::isfinite(w)) {
        return Status::InvalidArgument(
            "personalization weights must be finite and non-negative");
      }
      sum += w;
    }
    if (sum <= 0.0) {
      return Status::InvalidArgument("personalization weights must not all "
                                     "be zero");
    }
  }
  if (!options.initial_scores.empty()) {
    if (options.initial_scores.size() != graph.num_nodes()) {
      return Status::InvalidArgument(
          "initial_scores size must equal num_nodes");
    }
    double sum = 0.0;
    for (double w : options.initial_scores) {
      if (w < 0.0 || !std::isfinite(w)) {
        return Status::InvalidArgument(
            "initial_scores must be finite and non-negative");
      }
      sum += w;
    }
    if (sum <= 0.0) {
      return Status::InvalidArgument("initial_scores must not all be zero");
    }
  }
  return Status::OK();
}

std::vector<double> InitialIterate(const PageRankOptions& options,
                                   const std::vector<double>& teleport) {
  if (options.initial_scores.empty()) return teleport;
  std::vector<double> x = options.initial_scores;
  NormalizeSum(&x, 1.0);
  return x;
}

std::vector<double> TeleportDistribution(const CsrGraph& graph,
                                         const PageRankOptions& options) {
  const size_t n = graph.num_nodes();
  std::vector<double> v;
  if (options.personalization.empty()) {
    v.assign(n, n > 0 ? 1.0 / static_cast<double>(n) : 0.0);
  } else {
    v = options.personalization;
    NormalizeSum(&v, 1.0);
  }
  return v;
}

void ApplyScale(const CsrGraph& graph, const PageRankOptions& options,
                std::vector<double>* scores) {
  if (options.scale == ScaleConvention::kTotalMassN) {
    double n = static_cast<double>(graph.num_nodes());
    for (double& s : *scores) s *= n;
  }
}

Status FinishResult(const CsrGraph& graph, const PageRankOptions& options,
                    PageRankResult* result) {
  if (!result->converged && options.require_convergence) {
    return Status::NotConverged(
        "PageRank did not reach tolerance in " +
        std::to_string(options.max_iterations) + " iterations (residual " +
        std::to_string(result->residual) + ")");
  }
  ApplyScale(graph, options, &result->scores);
  if constexpr (kAuditLevel >= 1) {
    // Every engine funnels through here: finite non-negative scores with
    // the L1 mass the scale convention promises. Abort loudly — a bad
    // vector escaping the rank layer poisons everything downstream.
    if (graph.num_nodes() > 0) {
      const double mass = options.scale == ScaleConvention::kTotalMassN
                              ? static_cast<double>(graph.num_nodes())
                              : 1.0;
      const AuditReport audit = AuditRankVector(result->scores, mass);
      QRANK_CHECK(audit.ok())
          << "engine produced an invalid rank vector: " << audit.ToString();
    }
  }
  return Status::OK();
}

}  // namespace rank_internal

using rank_internal::FinishResult;
using rank_internal::TeleportDistribution;
using rank_internal::ValidateOptions;

Result<PageRankResult> ComputePageRank(const CsrGraph& graph,
                                       const PageRankOptions& options) {
  QRANK_RETURN_NOT_OK(ValidateOptions(graph, options));
  const NodeId n = graph.num_nodes();
  PageRankResult result;
  if (n == 0) {
    result.converged = true;
    return result;
  }

  // Pull formulation: next[i] depends only on x and read-only CSR
  // arrays, so rows parallelize with no write conflicts, and each row's
  // in-neighbor sum runs in the fixed ascending-source order — the
  // iterates are bit-identical for every thread count. The per-sweep
  // work (residual, dangling carry, out-share refresh) is fused into a
  // single allocation-free pass; see rank/pagerank_kernel.h.
  const std::vector<double> v = TeleportDistribution(graph, options);
  rank_internal::PageRankKernel kernel(
      graph, options, v, rank_internal::InitialIterate(options, v));

  for (uint32_t iter = 1; iter <= options.max_iterations; ++iter) {
    result.residual = kernel.Sweep();
    result.iterations = iter;
    if (result.residual < options.tolerance) {
      result.converged = true;
      break;
    }
  }

  result.scores = kernel.TakeScores();
  QRANK_RETURN_NOT_OK(FinishResult(graph, options, &result));
  if constexpr (kAuditLevel >= 2) {
    // Jacobi's declared convergence means the last update moved less
    // than tolerance, so one more operator application moves at most
    // damping * tolerance — comfortably inside the validator's bound.
    // (The validator assumes uniform teleport; skip under
    // personalization.)
    if (result.converged && options.personalization.empty()) {
      AuditContext ctx;
      ctx.graph = &graph;
      ctx.scores = &result.scores;
      ctx.damping = options.damping;
      ctx.tolerance = options.tolerance;
      ctx.declared_converged = true;
      const Result<AuditReport> audit = RunAuditValidator("engine.residual",
                                                          ctx);
      QRANK_CHECK(audit.ok() && audit.value().ok())
          << "declared-converged scores fail the fixed-point re-check: "
          << (audit.ok() ? audit.value().ToString()
                         : audit.status().ToString());
    }
  }
  return result;
}

Result<PageRankResult> ComputePageRankGaussSeidel(
    const CsrGraph& graph, const PageRankOptions& options) {
  QRANK_RETURN_NOT_OK(ValidateOptions(graph, options));
  const NodeId n = graph.num_nodes();
  PageRankResult result;
  if (n == 0) {
    result.converged = true;
    return result;
  }

  const double alpha = options.damping;
  const std::vector<double> v = TeleportDistribution(graph, options);
  std::vector<double> x = rank_internal::InitialIterate(options, v);

  // Pull formulation over the cached transpose (shared with any other
  // engine on this graph — no O(E) private copy); out-degrees cached
  // once.
  graph.BuildTranspose();
  std::vector<double> inv_outdeg(n, 0.0);
  for (NodeId u = 0; u < n; ++u) {
    uint32_t d = graph.OutDegree(u);
    if (d > 0) inv_outdeg[u] = 1.0 / static_cast<double>(d);
  }

  for (uint32_t iter = 1; iter <= options.max_iterations; ++iter) {
    // Dangling mass held fixed during a sweep (recomputed per sweep);
    // converges to the same fixed point.
    double dangling = 0.0;
    for (NodeId u = 0; u < n; ++u) {
      if (inv_outdeg[u] == 0.0) dangling += x[u];
    }
    double residual = 0.0;
    for (NodeId i = 0; i < n; ++i) {
      double pull = 0.0;
      for (NodeId u : graph.InNeighbors(i)) {
        pull += x[u] * inv_outdeg[u];
      }
      double fresh =
          (1.0 - alpha + alpha * dangling) * v[i] + alpha * pull;
      residual += std::fabs(fresh - x[i]);
      // A dangling node's own mass feeds the sweep-constant `dangling`;
      // the update is still a contraction.
      x[i] = fresh;
    }
    // Gauss-Seidel drifts slightly off the unit simplex because later
    // updates see fresh values; renormalize to keep probability scale.
    NormalizeSum(&x, 1.0);

    result.residual = residual;
    result.iterations = iter;
    if (residual < options.tolerance) {
      result.converged = true;
      break;
    }
  }

  result.scores = std::move(x);
  QRANK_RETURN_NOT_OK(FinishResult(graph, options, &result));
  return result;
}

}  // namespace qrank

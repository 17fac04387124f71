// Pull-sweep dispatch surface: the function-pointer bundle each
// instruction-set variant of the fused sweep exports, and the resolver
// that picks one at runtime.
//
// Two variants exist, each in its own translation unit: the scalar
// oracle (pagerank_kernel.cc, compiled without -m flags) and AVX-512
// (pagerank_kernel_avx512.cc, compiled with -mavx512f -mavx512vl behind
// QRANK_HAVE_AVX512). Both instantiate the shared templates of
// sweep_impl.h with their lane accumulator, so the fused row loop is
// written once. Dispatch happens once per kernel construction — the
// hot loop calls through a pointer per *block*, not per row.
//
// Determinism contract (DESIGN.md §5g): the scalar 4-accumulator fold
// is the oracle. AVX-512 folds 8 lanes (a different association) and
// carries a test-enforced <= 1e-14 per-element bound instead.

#ifndef QRANK_RANK_SWEEP_OPS_H_
#define QRANK_RANK_SWEEP_OPS_H_

#include <array>
#include <cstdint>

#include "common/simd.h"
#include "graph/edge_list.h"
#include "rank/pagerank.h"

namespace qrank {
namespace rank_internal {

/// Everything one fused block sweep reads and writes.
struct SweepArgs {
  const size_t* in_off = nullptr;      // transpose row offsets
  const NodeId* in_src = nullptr;      // transpose sources
  const double* x = nullptr;           // current iterate
  const double* v = nullptr;           // teleport distribution
  const double* out_share = nullptr;   // x[u] * inv_outdeg[u]
  const double* inv_outdeg = nullptr;
  double* next = nullptr;
  double* next_out_share = nullptr;
  double alpha = 0.0;
  double base_weight = 0.0;
};

/// Fused sweep over rows [lo, hi): writes next/next_out_share, returns
/// {L1 residual, next dangling mass} for the block.
using BlockSweepFn = std::array<double, 2> (*)(const SweepArgs&, size_t lo,
                                               size_t hi);

/// Plain pull over `count` explicit sources (the delta engine's per-row
/// update): sum of out_share[src[k]] under the variant's fold.
using RowPullFn = double (*)(const NodeId* src, size_t count,
                             const double* out_share);

struct SweepFuncs {
  BlockSweepFn block_sweep = nullptr;
  RowPullFn row_pull = nullptr;
};

/// The requested ceiling, clamped to what DetectSimdLevel() allows
/// (hardware x build x QRANK_FORCE_SIMD_LEVEL). Never escalates:
/// kScalar always returns the oracle.
SweepFuncs ResolveSweepFuncs(SimdLevel requested);

/// The SimdLevel ResolveSweepFuncs would run for a KernelVariant:
/// kScalar -> scalar, kSimd -> AVX-512 when available, else scalar.
SimdLevel KernelVariantLevel(KernelVariant variant);

}  // namespace rank_internal
}  // namespace qrank

#endif  // QRANK_RANK_SWEEP_OPS_H_

// Pull-sweep dispatch surface: the function-pointer bundle every
// instruction-set variant of the fused sweep exports, and the resolver
// that picks one at runtime.
//
// Each variant lives in its own translation unit compiled with the
// matching -m flags (pagerank_kernel.cc = scalar, pagerank_kernel_avx2
// / _avx512.cc behind QRANK_HAVE_AVX2/QRANK_HAVE_AVX512); all three
// instantiate the shared templates of sweep_impl.h with their lane
// accumulator, so the fused row loop is written once. Dispatch happens
// once per kernel construction — the hot loop calls through a pointer
// per *block*, not per row.
//
// Determinism contract (DESIGN.md §5g): the scalar 4-accumulator fold
// is the oracle. The AVX2 accumulator is that fold with p0..p3 as the
// four lanes of one __m256d — per-lane IEEE adds in the identical
// order, so AVX2 scores are bit-exact against scalar. AVX-512 folds 8
// lanes (a different association) and carries a test-enforced <= 1e-14
// per-element bound instead. The compressed (decode-on-the-fly) path
// is one shared fused decode+accumulate under the scalar oracle fold —
// varint decode dominates a compressed row, so lane parallelism buys
// nothing there — which makes compressed output bit-exact against the
// SCALAR raw path for every variant.

#ifndef QRANK_RANK_SWEEP_OPS_H_
#define QRANK_RANK_SWEEP_OPS_H_

#include <array>
#include <cstdint>

#include "common/simd.h"
#include "graph/edge_list.h"
#include "rank/pagerank.h"

namespace qrank {
namespace rank_internal {

/// Everything one fused block sweep reads and writes. Raw-path fields
/// and compressed-path fields are both present; a variant's raw_block
/// only touches in_off/in_src, its compressed_block only byte_off/bytes.
struct SweepArgs {
  const size_t* in_off = nullptr;      // transpose row offsets (raw)
  const NodeId* in_src = nullptr;      // transpose sources (raw)
  const uint64_t* byte_off = nullptr;  // compressed row byte offsets
  const uint8_t* bytes = nullptr;      // compressed varint stream
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

/// The delta engine's three-segment pull over one compressed row
/// [begin, end) of the varint stream: sources below `lo` and from `mid`
/// on read `out_share`, sources in [lo, mid) read `own`. Bit-exact with
/// the raw path's three scalar row_pull calls summed in segment order —
/// or, when own == out_share (a Jacobi step), with its one call over
/// the whole row.
/// Always the shared fused scalar decode+accumulate, whatever the
/// variant (see the determinism contract above).
using CompressedRowPullFn = double (*)(const uint8_t* begin,
                                       const uint8_t* end, NodeId lo,
                                       NodeId mid, const double* out_share,
                                       const double* own);

struct SweepFuncs {
  SimdLevel level = SimdLevel::kScalar;  // what actually got resolved
  BlockSweepFn raw_block = nullptr;
  BlockSweepFn compressed_block = nullptr;
  RowPullFn row_pull = nullptr;
  CompressedRowPullFn compressed_row_pull = nullptr;
};

/// The compressed block sweep every variant shares. Defined in the
/// scalar TU (pagerank_kernel.cc) on purpose: an ISA TU would compile
/// the row loop under -mavx512f, whose implied FMA lets the compiler
/// contract `base_weight * v[i] + alpha * pull` into one rounding and
/// silently break the compressed-equals-scalar bit-exactness contract.
std::array<double, 2> ScalarCompressedBlockSweep(const SweepArgs& args,
                                                 size_t lo, size_t hi);

/// The compressed row pull every variant shares (CompressedRowPullFn),
/// defined in the scalar TU for the same reason.
double ScalarCompressedSplitRowPull(const uint8_t* begin, const uint8_t* end,
                                    NodeId lo, NodeId mid,
                                    const double* out_share,
                                    const double* own);

/// The requested ceiling, clamped to what DetectSimdLevel() allows
/// (hardware x build x QRANK_FORCE_SIMD_LEVEL). Never escalates:
/// kScalar always returns the oracle.
SweepFuncs ResolveSweepFuncs(SimdLevel requested);

/// The SimdLevel ResolveSweepFuncs would run for a KernelVariant:
/// kScalar -> scalar, kAvx2/kAvx512 -> that level (clamped down when
/// unavailable), kSimd -> best available.
SimdLevel KernelVariantLevel(KernelVariant variant);

}  // namespace rank_internal
}  // namespace qrank

#endif  // QRANK_RANK_SWEEP_OPS_H_

// AVX-512 pull-sweep variant (requires AVX-512F + VL; compiled behind
// QRANK_HAVE_AVX512, resolved at runtime only on capable CPUs).
//
// Eight gather lanes per step, masked gather for the < 8 remainder —
// no scalar tail at all. The 8-lane fold is a DIFFERENT floating-point
// association than the scalar 4-accumulator oracle, so this variant is
// NOT bit-exact: it ships the documented tolerance instead. Each
// element's pull is a re-association of the same <= deg(i) addends
// (each bounded by the row's share mass <= 1), so the per-element error
// is O(deg * eps * pull) and the iteration contracts it by
// alpha/(1 - alpha); the equivalence suite enforces a <= 1e-14
// per-element bound against scalar on every generator, thread count
// and partition (DESIGN.md §5g). The -mavx512f this TU builds under
// also implies FMA, so the row update here may contract to a fused
// multiply-add — another rounding difference the tolerance absorbs
// (and the reason the scalar oracle is never instantiated here; see
// ScalarSweepFuncs in pagerank_kernel.cc).

#if defined(QRANK_HAVE_AVX512)

#include <immintrin.h>

#include "rank/sweep_impl.h"

namespace qrank {
namespace rank_internal {
namespace {

struct Avx512Acc {
  __m512d acc = _mm512_setzero_pd();

  void Accumulate(const NodeId* src, size_t count, const double* share) {
    // Mask-form gathers with an explicit zero source throughout: the
    // unmasked intrinsics expand through _mm512_undefined_pd(), whose
    // deliberately uninitialized dummy trips -Wuninitialized under GCC.
    size_t k = 0;
    for (; k + 8 <= count; k += 8) {
      const __m256i idx =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + k));
      acc = _mm512_add_pd(
          acc, _mm512_mask_i32gather_pd(_mm512_setzero_pd(), 0xff, idx,
                                        share, 8));
    }
    // Unconditional masked tail: a zero mask gathers nothing and adds
    // zero. Web-graph rows average ~8 in-edges, so a data-dependent
    // `if (rem > 0)` here is a near-guaranteed mispredict per row —
    // the masked no-op is cheaper than the flush.
    const size_t rem = count - k;
    const __mmask8 mask = static_cast<__mmask8>((1u << rem) - 1u);
    const __m256i idx = _mm256_maskz_loadu_epi32(mask, src + k);
    acc = _mm512_add_pd(
        acc, _mm512_mask_i32gather_pd(_mm512_setzero_pd(), mask, idx,
                                      share, 8));
  }

  double Fold() const {
    // In-register lane fold: lane j and lane 4+j pair first (hi/lo
    // 256-bit halves added), then the 4-accumulator fold. The maskz
    // extract forms dodge the undefined-dummy expansion of plain
    // _mm512_extractf64x4_pd / _mm512_castpd512_pd256, which trips
    // -Wuninitialized under GCC.
    const __m256d lo4 = _mm512_maskz_extractf64x4_pd(0xf, acc, 0);
    const __m256d hi4 = _mm512_maskz_extractf64x4_pd(0xf, acc, 1);
    const __m256d f = _mm256_add_pd(lo4, hi4);  // f_j = lane_j + lane_{4+j}
    const __m128d f01 = _mm256_castpd256_pd128(f);
    const __m128d f23 = _mm256_extractf128_pd(f, 1);
    const double a = _mm_cvtsd_f64(f01) +
                     _mm_cvtsd_f64(_mm_unpackhi_pd(f01, f01));
    const double b = _mm_cvtsd_f64(f23) +
                     _mm_cvtsd_f64(_mm_unpackhi_pd(f23, f23));
    return a + b;
  }
};

}  // namespace

SweepFuncs Avx512SweepFuncs() { return MakeSweepFuncs<Avx512Acc>(); }

}  // namespace rank_internal
}  // namespace qrank

#endif  // QRANK_HAVE_AVX512

// Shared implementation templates behind sweep_ops.h. Included ONLY by
// the per-ISA translation units (pagerank_kernel.cc and the
// pagerank_kernel_avx2/_avx512.cc files) — each instantiates the
// templates with its lane accumulator under its own -m flags. Keeping
// the instantiations TU-local is what lets one header serve three ISAs
// without ODR trouble.
//
// An accumulator type Acc models the scalar 4-accumulator fold:
//   Acc acc;                                  // all partials zero
//   acc.Accumulate(src, count, out_share);    // stream a source run
//   double pull = acc.Fold();                 // fixed fold order
// The raw path instantiates the row loop with the TU's Acc; the
// compressed (decode-on-the-fly) path is the same for every ISA — a
// fused decode+accumulate under the scalar oracle fold, because varint
// decode dominates a compressed row and gathering from a just-decoded
// buffer store-forward-stalls wide loads. Compressed scores are
// therefore bit-exact against the scalar raw path for EVERY variant.

#ifndef QRANK_RANK_SWEEP_IMPL_H_
#define QRANK_RANK_SWEEP_IMPL_H_

#include <cmath>
#include <cstring>

#include "common/annotations.h"
#include "graph/compressed_csr.h"
#include "rank/sweep_ops.h"

namespace qrank {
namespace rank_internal {

template <class Acc>
QRANK_HOT double PullRow(const NodeId* src, size_t count, const double* out_share) {
  Acc acc;
  acc.Accumulate(src, count, out_share);
  return acc.Fold();
}

/// Decode position inside one compressed row, carried across the
/// segments of a split pull (CompressedFoldBelow). The row's first value
/// is absolute, i.e. a gap from 0, so decoding starts from prev = 0.
struct CompressedRowCursor {
  const uint8_t* p;
  const uint8_t* end;
  uint32_t prev = 0;  // last decoded source
  bool held = false;  // prev is decoded but belongs to a later segment
};

/// Past every NodeId: a CompressedFoldBelow stop that takes the rest of
/// the row.
inline constexpr uint64_t kRowEnd = uint64_t{1} << 32;

/// Fused decode + accumulate of the row's next sources below `stop`,
/// reproducing the scalar oracle bit-for-bit over exactly that segment:
/// values stream through a 4-slot group — full groups land on p0..p3,
/// the final partial group (< 4) folds into p0 — exactly ScalarAcc's
/// assignment. Inline (not a template): every ISA variant shares this
/// one definition, which is what makes compressed output identical
/// across variants.
QRANK_HOT inline double CompressedFoldBelow(CompressedRowCursor* c,
                                            uint64_t stop,
                                            const double* out_share) {
  double p0 = 0.0, p1 = 0.0, p2 = 0.0, p3 = 0.0;
  const uint8_t* p = c->p;
  const uint8_t* const end = c->end;
  uint32_t prev = c->prev;
  bool held = c->held;
  uint32_t pending[4];
  size_t npend = 0;
  for (;;) {
    if (npend == 4) {
      p0 += out_share[pending[0]];
      p1 += out_share[pending[1]];
      p2 += out_share[pending[2]];
      p3 += out_share[pending[3]];
      npend = 0;
    }
    // Fast path: in a locality-friendly ordering most gaps fit one
    // byte, so whole words of the stream carry four gaps with no
    // continuation bit — decode with shifts and accumulate the group
    // directly, skipping four branchy varint loops. Rows ascend, so the
    // group stays inside the segment iff its last source does.
    while (!held && npend == 0 && p + 4 <= end) {
      uint32_t w;
      std::memcpy(&w, p, 4);
      if ((w & 0x80808080u) != 0) break;
      const uint32_t s0 = prev + (w & 0xffu);
      const uint32_t s1 = s0 + ((w >> 8) & 0xffu);
      const uint32_t s2 = s1 + ((w >> 16) & 0xffu);
      const uint32_t s3 = s2 + (w >> 24);
      if (s3 >= stop) break;
      p0 += out_share[s0];
      p1 += out_share[s1];
      p2 += out_share[s2];
      p3 += out_share[s3];
      prev = s3;
      p += 4;
    }
    if (!held) {
      if (p >= end) break;
      uint32_t delta;
      p = DecodeU32VarintUnchecked(p, &delta);
      prev += delta;
    }
    held = prev >= stop;
    if (held) break;
    pending[npend++] = prev;
  }
  for (size_t i = 0; i < npend; ++i) p0 += out_share[pending[i]];
  c->p = p;
  c->prev = prev;
  c->held = held;
  return (p0 + p1) + (p2 + p3);
}

/// The whole-row pull of the compressed block sweep.
QRANK_HOT inline double CompressedScalarPullRow(const uint8_t* p,
                                                const uint8_t* end,
                                                const double* out_share) {
  CompressedRowCursor c{p, end};
  return CompressedFoldBelow(&c, kRowEnd, out_share);
}

// The fused row loop of PageRankKernel::Sweep (see pagerank_kernel.h
// for the full story): next scores + L1 residual + carried dangling
// mass + next out-shares in one pass over rows [lo, hi).
template <class Acc, bool kCompressed>
QRANK_HOT std::array<double, 2> BlockSweep(const SweepArgs& a, size_t lo, size_t hi) {
  // Hoist every field into restrict-qualified locals: the stores to
  // next/next_out_share would otherwise force the compiler to reload
  // the argument block (and re-derive the row pointers) each row.
  const size_t* __restrict in_off = a.in_off;
  const NodeId* __restrict in_src = a.in_src;
  const uint64_t* __restrict byte_off = a.byte_off;
  const uint8_t* __restrict bytes = a.bytes;
  const double* __restrict x = a.x;
  const double* __restrict v = a.v;
  const double* __restrict out_share = a.out_share;
  const double* __restrict inv_outdeg = a.inv_outdeg;
  double* __restrict next = a.next;
  double* __restrict next_out_share = a.next_out_share;
  const double alpha = a.alpha;
  const double base_weight = a.base_weight;
  double residual = 0.0;
  double next_dangling = 0.0;
  for (size_t i = lo; i < hi; ++i) {
    double pull;
    if constexpr (kCompressed) {
      pull = CompressedScalarPullRow(bytes + byte_off[i],
                                     bytes + byte_off[i + 1], out_share);
    } else {
      const size_t begin = in_off[i];
      pull = PullRow<Acc>(in_src + begin, in_off[i + 1] - begin, out_share);
    }
    const double fresh = base_weight * v[i] + alpha * pull;
    residual += std::fabs(fresh - x[i]);
    if (inv_outdeg[i] == 0.0) next_dangling += fresh;
    next[i] = fresh;
    next_out_share[i] = fresh * inv_outdeg[i];
  }
  return {residual, next_dangling};
}

template <class Acc>
SweepFuncs MakeSweepFuncs(SimdLevel level) {
  SweepFuncs funcs;
  funcs.level = level;
  funcs.raw_block = &BlockSweep<Acc, /*kCompressed=*/false>;
  // NOT per-TU instantiations: the compressed sweep and row pull must
  // come from the scalar TU so no ISA TU's implied FMA or reassociation
  // can re-round them (see the declarations in sweep_ops.h).
  funcs.compressed_block = &ScalarCompressedBlockSweep;
  funcs.row_pull = &PullRow<Acc>;
  funcs.compressed_row_pull = &ScalarCompressedSplitRowPull;
  return funcs;
}

}  // namespace rank_internal
}  // namespace qrank

#endif  // QRANK_RANK_SWEEP_IMPL_H_

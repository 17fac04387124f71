// Shared implementation templates behind sweep_ops.h. Included ONLY by
// the per-ISA translation units (pagerank_kernel.cc and
// pagerank_kernel_avx512.cc) — each instantiates the templates with its
// lane accumulator under its own -m flags. Keeping the instantiations
// TU-local is what lets one header serve both ISAs without ODR trouble.
//
// An accumulator type Acc models the scalar 4-accumulator fold:
//   Acc acc;                                  // all partials zero
//   acc.Accumulate(src, count, out_share);    // stream a source run
//   double pull = acc.Fold();                 // fixed fold order

#ifndef QRANK_RANK_SWEEP_IMPL_H_
#define QRANK_RANK_SWEEP_IMPL_H_

#include <cmath>

#include "common/annotations.h"
#include "rank/sweep_ops.h"

namespace qrank {
namespace rank_internal {

template <class Acc>
QRANK_HOT double PullRow(const NodeId* src, size_t count, const double* out_share) {
  Acc acc;
  acc.Accumulate(src, count, out_share);
  return acc.Fold();
}

// The fused row loop of PageRankKernel::Sweep (see pagerank_kernel.h
// for the full story): next scores + L1 residual + carried dangling
// mass + next out-shares in one pass over rows [lo, hi).
template <class Acc>
QRANK_HOT std::array<double, 2> BlockSweep(const SweepArgs& a, size_t lo, size_t hi) {
  // Hoist every field into restrict-qualified locals: the stores to
  // next/next_out_share would otherwise force the compiler to reload
  // the argument block (and re-derive the row pointers) each row.
  const size_t* __restrict in_off = a.in_off;
  const NodeId* __restrict in_src = a.in_src;
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
    const size_t begin = in_off[i];
    const double pull =
        PullRow<Acc>(in_src + begin, in_off[i + 1] - begin, out_share);
    const double fresh = base_weight * v[i] + alpha * pull;
    residual += std::fabs(fresh - x[i]);
    if (inv_outdeg[i] == 0.0) next_dangling += fresh;
    next[i] = fresh;
    next_out_share[i] = fresh * inv_outdeg[i];
  }
  return {residual, next_dangling};
}

template <class Acc>
SweepFuncs MakeSweepFuncs() {
  SweepFuncs funcs;
  funcs.block_sweep = &BlockSweep<Acc>;
  funcs.row_pull = &PullRow<Acc>;
  return funcs;
}

}  // namespace rank_internal
}  // namespace qrank

#endif  // QRANK_RANK_SWEEP_IMPL_H_

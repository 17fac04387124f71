#include "rank/pagerank_kernel.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/annotations.h"

#include "rank/sweep_impl.h"

namespace qrank {
namespace rank_internal {

namespace {

// The oracle fold every SIMD variant is measured against: four
// accumulators break the serial FP-add dependency chain so the gathers
// overlap; the fold order depends only on the row's in-degree, never on
// the partition, keeping scores bit-identical across thread counts.
struct ScalarAcc {
  double p0 = 0.0, p1 = 0.0, p2 = 0.0, p3 = 0.0;

  void Accumulate(const NodeId* src, size_t count, const double* share) {
    size_t k = 0;
    for (; k + 4 <= count; k += 4) {
      p0 += share[src[k]];
      p1 += share[src[k + 1]];
      p2 += share[src[k + 2]];
      p3 += share[src[k + 3]];
    }
    for (; k < count; ++k) p0 += share[src[k]];
  }

  double Fold() const { return (p0 + p1) + (p2 + p3); }
};

// The oracle SweepFuncs: the shared row loop instantiated with the
// scalar fold. This TU is compiled without any -m ISA flags, so the row
// update keeps the plain mul-then-add rounding; an ISA TU would compile
// it under -mavx512f, whose implied FMA lets the compiler contract
// `base_weight * v[i] + alpha * pull` into one rounding and silently
// move the oracle. The QRANK_SCALAR_TU_ONLY marker makes that a
// build-breaking lint rule: qrank_lint cross-checks this TU's compile
// command for -mavx*/-ffast-math.
QRANK_SCALAR_TU_ONLY SweepFuncs ScalarSweepFuncs() {
  return MakeSweepFuncs<ScalarAcc>();
}

}  // namespace

// Defined in the AVX-512 translation unit; declared here (not in a
// shared header) so no other TU can reach it without going through
// ResolveSweepFuncs.
#if defined(QRANK_HAVE_AVX512)
SweepFuncs Avx512SweepFuncs();
#endif

SweepFuncs ResolveSweepFuncs(SimdLevel requested) {
#if defined(QRANK_HAVE_AVX512)
  if (requested == SimdLevel::kAvx512 &&
      DetectSimdLevel() == SimdLevel::kAvx512) {
    return Avx512SweepFuncs();
  }
#else
  (void)requested;
#endif
  return ScalarSweepFuncs();
}

SimdLevel KernelVariantLevel(KernelVariant variant) {
  return variant == KernelVariant::kSimd ? DetectSimdLevel()
                                         : SimdLevel::kScalar;
}

std::vector<size_t> PullSweepBoundaries(const CsrGraph& graph,
                                        SweepPartition partition,
                                        size_t grain) {
  std::vector<size_t> bounds;
  PullSweepBoundaries(graph, partition, grain, &bounds);
  return bounds;
}

void PullSweepBoundaries(const CsrGraph& graph, SweepPartition partition,
                         size_t grain, std::vector<size_t>* bounds) {
  const size_t n = graph.num_nodes();
  if (grain == 0) grain = 1;
  if (partition == SweepPartition::kNodeBalanced) {
    const size_t blocks = NumBlocks(n, grain);
    bounds->resize(blocks + 1);
    for (size_t b = 0; b < blocks; ++b) (*bounds)[b] = b * grain;
    (*bounds)[blocks] = n;
    return;
  }
  // Row i costs one gather per in-edge plus constant row work: weight
  // in_degree(i) + 1, prefix w(i) = in_offsets[i] + i. Same block count
  // as the uniform partition, so only the boundaries move. Each
  // boundary is the first i with w(i) >= its share of the total — the
  // WeightBalancedBoundaries rule, searched over w directly.
  const std::span<const size_t> in_off = graph.in_offsets();
  const size_t blocks = std::max<size_t>(1, NumBlocks(n, grain));
  const size_t total = in_off[n] + n;
  bounds->assign(blocks + 1, n);
  (*bounds)[0] = 0;
  for (size_t b = 1; b < blocks; ++b) {
    const size_t target = (b * total + blocks - 1) / blocks;
    size_t lo = 0;
    size_t hi = n + 1;
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (in_off[mid] + mid < target) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    (*bounds)[b] = std::max(std::min(lo, n), (*bounds)[b - 1]);
  }
}

PageRankKernel::PageRankKernel(const CsrGraph& graph,
                               const PageRankOptions& options,
                               const std::vector<double>& teleport,
                               std::vector<double> initial)
    : n_(graph.num_nodes()),
      alpha_(options.damping),
      v_(teleport),
      x_(std::move(initial)) {
  par_.num_threads = options.num_threads;
  graph.BuildTranspose();
  in_offsets_ = graph.in_offsets();
  in_sources_ = graph.in_sources();
  bounds_ = PullSweepBoundaries(graph, options.partition, par_.grain);

  // i32 gathers index with signed 32-bit lanes; ids past 2^31 would go
  // negative, so such graphs (none today — NodeId is u32 and real
  // inputs stay far below) pin the scalar path.
  SimdLevel requested = KernelVariantLevel(options.kernel);
  if (n_ > static_cast<NodeId>(std::numeric_limits<int32_t>::max())) {
    requested = SimdLevel::kScalar;
  }
  funcs_ = ResolveSweepFuncs(requested);

  inv_outdeg_.assign(n_, 0.0);
  for (NodeId u = 0; u < n_; ++u) {
    const uint32_t d = graph.OutDegree(u);
    if (d > 0) inv_outdeg_[u] = 1.0 / static_cast<double>(d);
  }

  next_.assign(n_, 0.0);
  out_share_.assign(n_, 0.0);
  next_out_share_.assign(n_, 0.0);
  const size_t blocks = bounds_.empty() ? 0 : bounds_.size() - 1;
  reduce_scratch_.assign(2 * blocks, 0.0);

  // Seed the sweep-carried state from the initial iterate: out-shares
  // and the dangling sum every later sweep gets for free from its
  // predecessor's fused pass.
  const std::array<double, 1> seeded = ParallelReducePartition<1>(
      bounds_,
      [&](size_t lo, size_t hi) {
        double dangling = 0.0;
        for (size_t u = lo; u < hi; ++u) {
          out_share_[u] = x_[u] * inv_outdeg_[u];
          if (inv_outdeg_[u] == 0.0) dangling += x_[u];
        }
        return std::array<double, 1>{dangling};
      },
      &reduce_scratch_, par_);
  dangling_ = seeded[0];
}

QRANK_HOT double PageRankKernel::Sweep() {
  SweepArgs args;
  args.in_off = in_offsets_.data();
  args.in_src = in_sources_.data();
  args.x = x_.data();
  args.v = v_.data();
  args.out_share = out_share_.data();
  args.inv_outdeg = inv_outdeg_.data();
  args.next = next_.data();
  args.next_out_share = next_out_share_.data();
  args.alpha = alpha_;
  args.base_weight = 1.0 - alpha_ + alpha_ * dangling_;

  const BlockSweepFn block = funcs_.block_sweep;
  const std::array<double, 2> sums = ParallelReducePartition<2>(
      bounds_,
      [&args, block](size_t lo, size_t hi) { return block(args, lo, hi); },
      &reduce_scratch_, par_);

  x_.swap(next_);
  out_share_.swap(next_out_share_);
  dangling_ = sums[1];
  return sums[0];
}

}  // namespace rank_internal
}  // namespace qrank

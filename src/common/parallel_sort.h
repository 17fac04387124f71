// Deterministic parallel merge sort over the ParallelFor substrate.
//
// ParallelSort extends the determinism contract of parallel_for.h to
// full-array sorting: the input is split into FIXED blocks whose
// boundaries depend only on (n, grain) — never on the thread count —
// each block is sorted independently, and the sorted runs are combined
// by a fixed pairwise merge tree. Every merge is itself chunked into
// fixed output ranges (the classic merge-path / co-rank split), so all
// chunks of all pairs at one tree level run in parallel while the
// output stays a pure function of (input, grain).
//
// REQUIREMENT: `less` must be a strict TOTAL order (no two elements
// may compare equivalent — break ties explicitly, e.g. by index). With
// a total order the sorted sequence is unique, so the result is
// BIT-IDENTICAL to a serial std::sort for every thread count — the
// property graph/reorder.cc relies on to keep its degree-descending
// permutation independent of the thread count. With ties,
// the merge tree and std::sort may order equivalent elements
// differently, breaking the serial-vs-parallel identity; a debug check
// rejects such comparators.
//
// Complexity: O(n log n) work, O(n) extra memory (one ping-pong
// buffer), and a critical path of O(n / num_threads) per merge level —
// the final whole-array merge is chunked too, so no level serializes.

#ifndef QRANK_COMMON_PARALLEL_SORT_H_
#define QRANK_COMMON_PARALLEL_SORT_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/logging.h"
#include "common/parallel_for.h"

namespace qrank {

namespace sort_internal {

/// Co-rank: how many of the first `k` outputs of merging the sorted
/// runs [a, a+na) and [b, b+nb) come from `a` (std::merge semantics).
/// Under a strict total order the answer is unique; binary search on
/// the smallest i with !less(a[i], b[k-i-1]).
template <typename T, typename Less>
size_t CoRank(const T* a, size_t na, const T* b, size_t nb, size_t k,
              const Less& less) {
  size_t lo = k > nb ? k - nb : 0;
  size_t hi = k < na ? k : na;
  while (lo < hi) {
    const size_t i = lo + (hi - lo) / 2;  // i in [lo, hi) => k - i >= 1
    if (less(a[i], b[k - i - 1])) {
      lo = i + 1;
    } else {
      hi = i;
    }
  }
  return lo;
}

/// One fixed output chunk of one pairwise merge: merge run A
/// [a_lo, a_hi) with run B [a_hi, b_hi), output positions
/// [out_lo, out_hi). b_hi == a_hi marks a pass-through copy of the odd
/// leftover run.
struct MergeChunk {
  size_t a_lo, a_hi, b_hi;
  size_t out_lo, out_hi;
};

/// Debug-build contract check: in a sequence sorted under a strict
/// TOTAL order, every adjacent pair compares strictly — an equivalent
/// pair means the caller's comparator has ties and the
/// serial-vs-parallel bit-identity does not hold.
template <typename T, typename Less>
void DebugCheckTotalOrder([[maybe_unused]] const std::vector<T>& v,
                          [[maybe_unused]] const Less& less) {
#ifndef NDEBUG
  for (size_t i = 0; i + 1 < v.size(); ++i) {
    QRANK_DCHECK(less(v[i], v[i + 1]))
        << "ParallelSort comparator is not a strict total order: sorted "
           "elements "
        << i << " and " << i + 1 << " compare equivalent";
  }
#endif
}

}  // namespace sort_internal

/// Sorts `v` by `less` (a strict TOTAL order — see file comment).
/// Result is bit-identical to std::sort(v->begin(), v->end(), less)
/// for every opts.num_threads value.
template <typename T, typename Less>
void ParallelSort(std::vector<T>* v, Less less, ParallelOptions opts = {}) {
  const size_t n = v->size();
  const size_t grain = opts.grain > 0 ? opts.grain : 1;
  const size_t blocks = NumBlocks(n, grain);
  if (ResolveThreads(opts.num_threads) <= 1 || blocks <= 1) {
    std::sort(v->begin(), v->end(), less);
    sort_internal::DebugCheckTotalOrder(*v, less);
    return;
  }

  // Level 0: sort each fixed block in place, in parallel.
  std::vector<size_t> runs = UniformBoundaries(n, grain);
  parallel_internal::RunBlocks(
      blocks,
      [&](size_t b) { std::sort(v->data() + runs[b], v->data() + runs[b + 1], less); },
      opts.num_threads);

  // Merge levels: ping-pong between v and a scratch buffer. All chunk
  // boundaries derive from (runs, grain) only.
  std::vector<T> scratch(n);
  T* src = v->data();
  T* dst = scratch.data();
  std::vector<sort_internal::MergeChunk> chunks;
  std::vector<size_t> next_runs;
  while (runs.size() > 2) {
    const size_t num_runs = runs.size() - 1;
    chunks.clear();
    next_runs.clear();
    next_runs.push_back(0);
    for (size_t r = 0; r + 1 < num_runs; r += 2) {
      const size_t a_lo = runs[r];
      const size_t a_hi = runs[r + 1];
      const size_t b_hi = runs[r + 2];
      const size_t m = b_hi - a_lo;
      const size_t parts = NumBlocks(m, grain);
      for (size_t c = 0; c < parts; ++c) {
        const size_t k_lo = c * grain;
        const size_t k_hi = k_lo + grain < m ? k_lo + grain : m;
        chunks.push_back({a_lo, a_hi, b_hi, a_lo + k_lo, a_lo + k_hi});
      }
      next_runs.push_back(b_hi);
    }
    if (num_runs % 2 != 0) {  // odd leftover run: copy through
      chunks.push_back(
          {runs[num_runs - 1], runs[num_runs], runs[num_runs],
           runs[num_runs - 1], runs[num_runs]});
      next_runs.push_back(runs[num_runs]);
    }
    parallel_internal::RunBlocks(
        chunks.size(),
        [&](size_t t) {
          const sort_internal::MergeChunk& c = chunks[t];
          if (c.b_hi == c.a_hi) {  // pass-through
            std::copy(src + c.out_lo, src + c.out_hi, dst + c.out_lo);
            return;
          }
          const T* a = src + c.a_lo;
          const size_t na = c.a_hi - c.a_lo;
          const T* b = src + c.a_hi;
          const size_t nb = c.b_hi - c.a_hi;
          const size_t k_lo = c.out_lo - c.a_lo;
          const size_t k_hi = c.out_hi - c.a_lo;
          const size_t ia_lo = sort_internal::CoRank(a, na, b, nb, k_lo, less);
          const size_t ia_hi = sort_internal::CoRank(a, na, b, nb, k_hi, less);
          std::merge(a + ia_lo, a + ia_hi, b + (k_lo - ia_lo),
                     b + (k_hi - ia_hi), dst + c.out_lo, less);
        },
        opts.num_threads);
    std::swap(src, dst);
    runs.swap(next_runs);
  }
  if (src != v->data()) {
    std::copy(src, src + n, v->data());
  }
  sort_internal::DebugCheckTotalOrder(*v, less);
}

}  // namespace qrank

#endif  // QRANK_COMMON_PARALLEL_SORT_H_

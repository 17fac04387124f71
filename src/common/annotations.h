// Source-level contract markers consumed by tools/qrank_lint.py.
//
// These macros mostly compile to nothing (QRANK_HOT doubles as a real
// optimizer hint where supported); their job is to be visible tokens
// the linter can anchor repo-specific rules to, so the contracts they
// name are machine-checked instead of comment-enforced:
//
//  * QRANK_HOT — this function is on a serve/sweep/decode hot path and
//    must not allocate, directly or through anything else defined in
//    its translation unit (lint rule `hot-alloc`; the dynamic
//    counterpart is the counting-allocator kernel_alloc/serve_alloc
//    tests, which only see the paths they exercise).
//
//  * QRANK_SCALAR_TU_ONLY — this definition is on the bit-exactness
//    list: it may only live in a translation unit compiled without
//    -mavx*/-ffast-math, because implied FMA contraction would re-round
//    its arithmetic (lint rule `scalar-tu`; see pagerank_kernel.cc on
//    why ScalarSweepFuncs must come from the scalar TU). The rule
//    also rejects the marker in headers — a header definition could be
//    instantiated under any TU's flags.

#ifndef QRANK_COMMON_ANNOTATIONS_H_
#define QRANK_COMMON_ANNOTATIONS_H_

#if defined(__GNUC__) || defined(__clang__)
#define QRANK_HOT __attribute__((hot))
#else
#define QRANK_HOT
#endif

#define QRANK_SCALAR_TU_ONLY  // lint marker only

#endif  // QRANK_COMMON_ANNOTATIONS_H_

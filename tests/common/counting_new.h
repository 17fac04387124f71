// Allocation counting for the allocation tests (serve_alloc_test,
// dist_alloc_test, kernel_alloc_test). Linking the qrank_counting_new
// object library replaces the global operator new / delete with
// malloc / free versions that count every allocation. The replacements
// live in their own translation unit, so no test sees the free() inside
// operator delete paired with its own new-expressions.

#ifndef QRANK_TESTS_COMMON_COUNTING_NEW_H_
#define QRANK_TESTS_COMMON_COUNTING_NEW_H_

#include <cstddef>
#include <functional>

namespace qrank {

/// Global operator new calls so far, from every thread.
size_t AllocationCount();

/// Allocations made while `fn` runs.
size_t AllocationsDuring(const std::function<void()>& fn);

}  // namespace qrank

#endif  // QRANK_TESTS_COMMON_COUNTING_NEW_H_

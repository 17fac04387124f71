// The dispatch-cap parse behind QRANK_FORCE_SIMD_LEVEL: a known level
// caps at itself, no value caps nothing, and anything else caps at the
// scalar oracle — so a stale spelling can never leave a faster path on.

#include "common/simd.h"

#include <gtest/gtest.h>

namespace qrank {
namespace {

TEST(SimdCapTest, UnsetMeansNoCap) {
  bool unknown = true;
  EXPECT_EQ(ForcedSimdCap(nullptr, &unknown), SimdLevel::kAvx512);
  EXPECT_FALSE(unknown);
}

TEST(SimdCapTest, KnownLevelsCapAtThemselves) {
  bool unknown = true;
  EXPECT_EQ(ForcedSimdCap("scalar", &unknown), SimdLevel::kScalar);
  EXPECT_FALSE(unknown);
  EXPECT_EQ(ForcedSimdCap("avx512", &unknown), SimdLevel::kAvx512);
  EXPECT_FALSE(unknown);
}

TEST(SimdCapTest, UnknownValueCapsAtScalar) {
  for (const char* value : {"avx2", "", "AVX512", "sse2"}) {
    bool unknown = false;
    EXPECT_EQ(ForcedSimdCap(value, &unknown), SimdLevel::kScalar) << value;
    EXPECT_TRUE(unknown) << value;
  }
}

}  // namespace
}  // namespace qrank

#include "common/simd.h"

#include <cstdio>
#include <cstdlib>

namespace qrank {
namespace {

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define QRANK_SIMD_CAN_PROBE 1
#else
#define QRANK_SIMD_CAN_PROBE 0
#endif

SimdLevel ProbeHardware() {
#if QRANK_SIMD_CAN_PROBE
  // avx512vl is required alongside avx512f: the kernel's masked tail
  // loads use 256-bit VL forms.
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512vl")) {
    return SimdLevel::kAvx512;
  }
#endif
  return SimdLevel::kScalar;
}

SimdLevel EnvCap() {
  const char* force = std::getenv("QRANK_FORCE_SIMD_LEVEL");
  bool unknown = false;
  const SimdLevel cap = ForcedSimdCap(force, &unknown);
  if (unknown) {
    std::fprintf(stderr,
                 "qrank: QRANK_FORCE_SIMD_LEVEL='%s' is not scalar or "
                 "avx512; capping dispatch at scalar\n",
                 force);
  }
  return cap;
}

// min(hardware, build, env cap): with two levels, any limit below the
// hardware's means scalar.
SimdLevel ComputeDetected() {
  const SimdLevel cap = EnvCap();
  const SimdLevel level = ProbeHardware();
  if (cap == SimdLevel::kScalar || !SimdLevelCompiled(level)) {
    return SimdLevel::kScalar;
  }
  return level;
}

}  // namespace

SimdLevel HardwareSimdLevel() {
  static const SimdLevel level = ProbeHardware();
  return level;
}

SimdLevel DetectSimdLevel() {
  static const SimdLevel level = ComputeDetected();
  return level;
}

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx512:
      return "avx512";
  }
  return "scalar";
}

bool ParseSimdLevel(const std::string& text, SimdLevel* out) {
  if (text == "scalar") {
    *out = SimdLevel::kScalar;
  } else if (text == "avx512") {
    *out = SimdLevel::kAvx512;
  } else {
    return false;
  }
  return true;
}

SimdLevel ForcedSimdCap(const char* value, bool* unknown) {
  *unknown = false;
  if (value == nullptr) return SimdLevel::kAvx512;  // no cap
  SimdLevel parsed;
  if (ParseSimdLevel(value, &parsed)) return parsed;
  *unknown = true;
  return SimdLevel::kScalar;
}

std::string SimdFeatureString() {
  std::string features;
#if QRANK_SIMD_CAN_PROBE
  const auto append = [&features](const char* name) {
    if (!features.empty()) features += '+';
    features += name;
  };
  if (__builtin_cpu_supports("avx2")) append("avx2");
  if (__builtin_cpu_supports("avx512f")) append("avx512f");
  if (__builtin_cpu_supports("avx512vl")) append("avx512vl");
  if (__builtin_cpu_supports("avx512dq")) append("avx512dq");
  if (__builtin_cpu_supports("avx512bw")) append("avx512bw");
#endif
  if (features.empty()) features = "none";
  return features;
}

bool SimdLevelCompiled(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return true;
    case SimdLevel::kAvx512:
#if defined(QRANK_HAVE_AVX512)
      return true;
#else
      return false;
#endif
  }
  return false;
}

}  // namespace qrank

// Runtime SIMD capability detection.
//
// The repo builds the AVX-512 translation unit (src/rank/
// pagerank_kernel_avx512.cc) only when the compiler supports the flags
// and the target is x86_64; whether it actually runs is decided per
// process by this shim. Detection is a one-time CPUID
// probe (GCC/Clang __builtin_cpu_supports) cached in a static, so the
// hot paths pay one predictable load. Non-x86 builds and compilers
// without the builtin report kScalar.
//
// QRANK_FORCE_SIMD_LEVEL (env var: "scalar" | "avx512") caps the
// detected level below the hardware's — never above — so the
// equivalence tests and benches can pin a variant on any machine. Any
// other value caps at scalar, the oracle, and says so on stderr.

#ifndef QRANK_COMMON_SIMD_H_
#define QRANK_COMMON_SIMD_H_

#include <cstdint>
#include <string>

namespace qrank {

/// The dispatch tiers the pull-sweep kernel knows about. The values
/// are what the benches record as their `simd_level` counter.
enum class SimdLevel : uint8_t {
  kScalar = 0,
  kAvx512 = 2,  // AVX-512F + VL (8x double gather lanes, masked tails)
};

/// Highest level this process may use: min(hardware support, compiled
/// support, QRANK_FORCE_SIMD_LEVEL cap). Cached after the first call;
/// thread-safe.
SimdLevel DetectSimdLevel();

/// Raw hardware capability, ignoring the env cap and what this binary
/// was compiled with. For reporting (bench host context), not dispatch.
SimdLevel HardwareSimdLevel();

/// "scalar" | "avx512".
const char* SimdLevelName(SimdLevel level);

/// Parses the names above. Returns false on unknown input.
bool ParseSimdLevel(const std::string& text, SimdLevel* out);

/// The cap a QRANK_FORCE_SIMD_LEVEL value puts on dispatch: none
/// (kAvx512) when unset (nullptr), the named level when ParseSimdLevel
/// knows it, and kScalar for anything else — an unknown value never
/// leaves a faster path running. Sets `*unknown` for the last case.
SimdLevel ForcedSimdCap(const char* value, bool* unknown);

/// Human-readable ISA feature summary for bench JSON host stamping,
/// e.g. "avx2+avx512f+avx512vl" or "none". Reports hardware features,
/// independent of build flags.
std::string SimdFeatureString();

/// True when this binary carries the code path for `level` (compile-time
/// QRANK_HAVE_AVX512 gating in src/rank).
bool SimdLevelCompiled(SimdLevel level);

}  // namespace qrank

#endif  // QRANK_COMMON_SIMD_H_

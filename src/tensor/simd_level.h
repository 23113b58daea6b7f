// Host SIMD capability tiers for the runtime-dispatched GEMM and SWAR
// kernels. A level names the widest instruction set a kernel may use:
//
//   kNone  — portable scalar code only (the tiles of gemm_blocked.h).
//   kSse   — SSE4.1 128-bit microkernels.
//   kAvx2  — AVX2 256-bit microkernels.
//
// The *detected* level is what this binary can actually run: the CPU must
// advertise the feature AND the matching kernel translation unit must have
// been compiled (non-x86 builds, or compilers without -mavx2/-msse4.1,
// detect kNone/kSse). The *active* level is what kernels consult at
// dispatch time:
//
//   active = min(detected, override)
//
// where the override comes from the VITBIT_SIMD_LEVEL environment variable
// ("none" | "sse" | "avx2", read once on first use; any other value throws
// CheckError) or from set_simd_level_override(). Requesting a level above
// what the machine supports clamps to the detected level rather than
// failing: that is what makes every tier testable on any machine — forcing
// "none" always exercises the scalar fallback, forcing "avx2" on an
// SSE-only box degrades to the best the hardware has.
#pragma once

#include <string>

namespace vitbit {

enum class SimdLevel { kNone = 0, kSse = 1, kAvx2 = 2 };

// "none" | "sse" | "avx2".
const char* simd_level_name(SimdLevel level);
// Valid spellings listed in simd_level_names(); anything else throws
// CheckError naming them all.
SimdLevel simd_level_from_string(const std::string& name);
// "none|sse|avx2" — for error messages and --help text.
const char* simd_level_names();

// Widest level this binary can run on this CPU (feature bit present and
// the kernel TU compiled in). Computed once; never changes.
SimdLevel detected_simd_level();

// min(detected, override): the level SIMD kernels dispatch on.
SimdLevel active_simd_level();

// Process-wide override, same clamping as VITBIT_SIMD_LEVEL (which it
// replaces when set). Tests use this to force every tier.
void set_simd_level_override(SimdLevel level);
// Return to the VITBIT_SIMD_LEVEL / detected default.
void clear_simd_level_override();

}  // namespace vitbit

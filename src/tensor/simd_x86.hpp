// x86 pieces shared by the runtime-dispatched AVX2 paths of
// tensor/kernels.cpp and hwarith/softmax_unit.cpp: the CPU check, the
// branchless rounding-shift-and-clamp, and the shift range over which that
// reformulation is proven equal to rounding_shift_right.
//
// Intrinsics headers are safe to include without -march flags; the AVX2
// paths are compiled per-function via __attribute__((target("avx2"))) and
// only ever *called* after a runtime __builtin_cpu_supports check, so the
// binary stays runnable on any x86-64 host.
#pragma once

#if defined(__x86_64__) || defined(__i386__)
#define TFACC_SIMD_X86 1
#include <immintrin.h>
#endif

namespace tfacc::kernels {

/// True when round_clamp_avx2 equals rounding_shift_right at this shift: the
/// reformulation needs s ≥ 1, and its emulated arithmetic shift needs the
/// rounding bias 2^(s−1) ≤ 2^47.
constexpr bool rounding_shift_vectorizable(int shift) {
  return shift >= 1 && shift <= 48;
}

#if TFACC_SIMD_X86

inline bool cpu_has_avx2() {
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
}

// Branchless reformulation of rounding_shift_right(p, s) for s ≥ 1:
//
//   round(p, s) = (p + bias + (p < 0 ? −1 : 0)) >>ₐ s,   bias = 2^(s−1)
//
// (for p < 0, −((−p + bias) >> s) = floor((p − bias + 2^s − 1)/2^s) and
// 2^s − 1 − bias = bias − 1). AVX2 has no 64-bit arithmetic shift, so it is
// emulated: x >>ₐ s = ((x + 2^62) >>ₗ s) − 2^(62−s), valid while x + 2^62
// stays in [0, 2^63). Each call site states its bound on |p|, and the
// dispatch takes this path only when rounding_shift_vectorizable(s), so
// bias ≤ 2^47.

/// Round, emulated-arithmetic-shift, and clamp four int64 products.
/// `offset` = 2^62, `offset_shifted` = 2^62 >> s, `count` = s.
__attribute__((target("avx2"))) inline __m256i round_clamp_avx2(
    __m256i prod, __m256i bias, __m128i count, __m256i offset,
    __m256i offset_shifted, __m256i lo, __m256i hi) {
  const __m256i neg = _mm256_cmpgt_epi64(_mm256_setzero_si256(), prod);
  __m256i x = _mm256_add_epi64(_mm256_add_epi64(prod, bias), neg);
  x = _mm256_sub_epi64(_mm256_srl_epi64(_mm256_add_epi64(x, offset), count),
                       offset_shifted);
  x = _mm256_blendv_epi8(x, hi, _mm256_cmpgt_epi64(x, hi));
  x = _mm256_blendv_epi8(x, lo, _mm256_cmpgt_epi64(lo, x));
  return x;
}

#endif  // TFACC_SIMD_X86

}  // namespace tfacc::kernels

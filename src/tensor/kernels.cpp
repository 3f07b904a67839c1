#include "tensor/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "common/check.hpp"
#include "common/fixed_point.hpp"
#include "tensor/simd_x86.hpp"

#if defined(__aarch64__) && defined(__ARM_NEON)
#define TFACC_KERNELS_NEON 1
#include <arm_neon.h>
#endif

namespace tfacc::kernels {

namespace {

using detail::GemmTier;

Kind kind_from_env_or_default() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* spec = std::getenv("TFACC_KERNEL");
  if (spec == nullptr || *spec == '\0') return Kind::kSimd;
  Kind kind = Kind::kSimd;
  TFACC_CHECK_ARG_MSG(parse_kind(spec, &kind),
                      "TFACC_KERNEL='" << spec << "' (want scalar|simd)");
  return kind;
}

// Memory-ordering contract for the dispatch slot (PR 10, pinned):
// std::memory_order_relaxed is sufficient on BOTH sides, by design. The
// slot is the only cross-thread state in the dispatch, and every kernel
// kind is bit-identical on every input (the test_kernels equivalence grid
// + bench_gemm --smoke prove it), so dispatch is idempotent: a racing
// reader observing the old kind merely runs the other, equally-correct
// kernel once — no other memory is published alongside the store, hence
// nothing to acquire/release. kRelaxedDispatchOrder names the contract so
// a future non-idempotent publication (e.g. a kind-specific lookup table)
// cannot silently inherit it: such a change must replace the named
// constant, not add one more bare memory_order argument.
constexpr std::memory_order kRelaxedDispatchOrder =
    std::memory_order_relaxed;

std::atomic<Kind>& kind_slot() {
  static std::atomic<Kind> slot{kind_from_env_or_default()};
  return slot;
}

// ---------------------------------------------------------------------------
// Scalar kernels: the original tensor/ops triple loops, verbatim. These are
// the semantic reference every vector path must match bit-for-bit, the
// fallback wherever a host has no vector path, and the "before" side of the
// wall-clock speedup gate.
// ---------------------------------------------------------------------------

// hot-path: allocation-free region — every kernel in this namespace runs
// inside decode_step_batch; they write pre-shaped outputs and never touch
// the heap (scripts/lint_invariants.py scans the region until the matching
// '// hot-path: region end').

template <typename T, typename Acc>
void gemm_scalar(const Matrix<T>& a, const Matrix<T>& b, Matrix<Acc>& out) {
  const int m = a.rows(), k = a.cols(), n = b.cols();
  for (int i = 0; i < m; ++i) {
    Acc* orow = out.row(i);
    for (int j = 0; j < n; ++j) orow[j] = Acc{};
    const T* arow = a.row(i);
    for (int p = 0; p < k; ++p) {
      const Acc av = arow[p];
      const T* brow = b.row(p);
      for (int j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
}

template <typename T, typename Acc>
void gemm_nt_scalar(const Matrix<T>& a, const Matrix<T>& b, Matrix<Acc>& out) {
  const int k = a.cols();
  for (int i = 0; i < a.rows(); ++i) {
    const T* arow = a.row(i);
    Acc* orow = out.row(i);
    for (int j = 0; j < b.rows(); ++j) {
      const T* brow = b.row(j);
      Acc acc{};
      for (int p = 0; p < k; ++p) acc += static_cast<Acc>(arow[p]) * brow[p];
      orow[j] = acc;
    }
  }
}

/// The packed GEMM's scalar reference: gemm_scalar's per-element sum, seeded
/// with the bias. For each panel it copies up to kChunk k of the panel's 16
/// columns into column rows on the stack (4 KB), then runs the plain int8 dot
/// product, four columns per pass over A — a loop compilers vectorize on every
/// target (SSE2, NEON), as they did over the old Bᵀ rows. Hosts without AVX2
/// run this loop.
void gemm_i8_packed_scalar(const MatI8& a, const PackedI8& bp,
                           const std::int32_t* bias, MatI32& out) {
  constexpr int kCols = PackedI8::kPanelCols, kGroup = PackedI8::kGroupK;
  constexpr int kChunk = 256;  // a multiple of kGroup
  const int k = a.cols();
  for (int j0 = 0; j0 < bp.n; j0 += kCols) {
    const int cols = std::min(kCols, bp.n - j0);
    for (int i = 0; i < a.rows(); ++i)
      for (int c = 0; c < cols; ++c)
        out.row(i)[j0 + c] = bias != nullptr ? bias[j0 + c] : 0;
    for (int p0 = 0; p0 < k; p0 += kChunk) {
      const int len = std::min(kChunk, k - p0);
      // Whole k-groups of all 16 columns: the pack's zero padding included.
      alignas(64) std::int8_t col[kCols][kChunk];
      const std::int8_t* line =
          bp.panel(j0 / kCols) +
          static_cast<std::size_t>(p0 / kGroup) * PackedI8::kLineBytes;
      for (int q = 0; q < len; q += kGroup, line += PackedI8::kLineBytes)
        for (int c = 0; c < kCols; ++c)
          std::memcpy(&col[c][q], line + c * kGroup, kGroup);
      for (int i = 0; i < a.rows(); ++i) {
        const std::int8_t* arow = a.row(i) + p0;
        std::int32_t* orow = out.row(i) + j0;
        for (int c = 0; c < cols; c += 4) {
          std::int32_t acc[4] = {};
          for (int p = 0; p < len; ++p) {
            const std::int32_t av = arow[p];
            for (int t = 0; t < 4; ++t) acc[t] += av * col[c + t][p];
          }
          for (int t = 0; t < 4 && c + t < cols; ++t) orow[c + t] += acc[t];
        }
      }
    }
  }
}

/// Saturate to the output element type (int8 or int16).
template <typename OutT>
OutT saturate_narrow(std::int64_t v) {
  if constexpr (sizeof(OutT) == 1) return saturate_i8(v);
  else return saturate_i16(v);  // NOLINT(readability-else-after-return)
}

/// The quantizer's original requantize loops, verbatim: (r,c) indexing and
/// FixedPointScale::apply per element.
template <typename OutT>
void requantize_scalar(const MatI32& acc, std::int32_t mantissa, int shift,
                       Matrix<OutT>& out) {
  for (int r = 0; r < acc.rows(); ++r)
    for (int c = 0; c < acc.cols(); ++c)
      out(r, c) = saturate_narrow<OutT>(rounding_shift_right(
          static_cast<std::int64_t>(acc(r, c)) * mantissa, shift));
}

/// LayerNormUnit::row's accumulator loop, verbatim.
void layernorm_stats_scalar(const std::int16_t* g, int n, std::int64_t* sum,
                            std::int64_t* sumsq) {
  std::int64_t s = 0, q = 0;
  for (int j = 0; j < n; ++j) {
    s += g[j];
    q += static_cast<std::int64_t>(g[j]) * g[j];
  }
  *sum = s;
  *sumsq = q;
}

/// LayerNormUnit::finish_row's γ/β loop, verbatim.
void layernorm_finish_scalar(const std::int16_t* g, int n, std::int64_t sum,
                             std::int32_t rs_mantissa, int norm_shift,
                             int gamma_shift, const std::int32_t* gq,
                             const std::int32_t* bq, std::int8_t* out) {
  for (int j = 0; j < n; ++j) {
    const std::int64_t t = static_cast<std::int64_t>(n) * g[j] - sum;
    const std::int64_t norm =
        rounding_shift_right(t * rs_mantissa, norm_shift);
    const std::int64_t scaled =
        rounding_shift_right(norm * gq[j], gamma_shift);
    out[j] = saturate_i8(scaled + bq[j]);
  }
}

// ---------------------------------------------------------------------------
// AVX2 kernels (x86, runtime-dispatched). Integer reductions use
// sign-extension to int16 + pmaddwd, which is exact for int8 operands
// (|pair sum| ≤ 2·128² < 2³¹) and for quantized int16 operands. The f32
// kernel vectorizes across output columns with separate mul+add — the
// target attribute enables AVX2 only (no FMA), so no contraction can change
// the scalar path's per-element rounding.
// ---------------------------------------------------------------------------

#if TFACC_SIMD_X86

__attribute__((target("avx2"))) std::int32_t hsum_epi32(__m256i v) {
  __m128i s = _mm_add_epi32(_mm256_castsi256_si128(v),
                            _mm256_extracti128_si256(v, 1));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

__attribute__((target("avx2"))) std::int32_t dot_i8_avx2(const std::int8_t* a,
                                                         const std::int8_t* b,
                                                         int k) {
  __m256i acc = _mm256_setzero_si256();
  int p = 0;
  for (; p + 32 <= k; p += 32) {
    const __m256i a0 = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + p)));
    const __m256i b0 = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + p)));
    const __m256i a1 = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + p + 16)));
    const __m256i b1 = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + p + 16)));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a0, b0));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a1, b1));
  }
  for (; p + 16 <= k; p += 16) {
    const __m256i a0 = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + p)));
    const __m256i b0 = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + p)));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a0, b0));
  }
  std::int32_t sum = hsum_epi32(acc);
  for (; p < k; ++p) sum += static_cast<std::int32_t>(a[p]) * b[p];
  return sum;
}

__attribute__((target("avx2"))) void gemm_i8_avx2(const MatI8& a,
                                                  const MatI8& b,
                                                  MatI32& out) {
  const int m = a.rows(), k = a.cols(), n = b.cols();
  if (n == 0) return;  // row() may be null on an empty matrix (memset UB)
  for (int i = 0; i < m; ++i) {
    std::int32_t* orow = out.row(i);
    std::memset(orow, 0, static_cast<std::size_t>(n) * sizeof(std::int32_t));
    const std::int8_t* arow = a.row(i);
    for (int p = 0; p < k; ++p) {
      const std::int8_t* brow = b.row(p);
      const __m256i av = _mm256_set1_epi16(arow[p]);
      int j = 0;
      for (; j + 16 <= n; j += 16) {
        const __m256i b16 = _mm256_cvtepi8_epi16(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(brow + j)));
        // int8·int8 products fit int16 exactly (|v| ≤ 128·128 < 2¹⁵).
        const __m256i prod = _mm256_mullo_epi16(av, b16);
        const __m256i lo =
            _mm256_cvtepi16_epi32(_mm256_castsi256_si128(prod));
        const __m256i hi =
            _mm256_cvtepi16_epi32(_mm256_extracti128_si256(prod, 1));
        __m256i* o = reinterpret_cast<__m256i*>(orow + j);
        _mm256_storeu_si256(o, _mm256_add_epi32(_mm256_loadu_si256(o), lo));
        __m256i* o2 = reinterpret_cast<__m256i*>(orow + j + 8);
        _mm256_storeu_si256(o2, _mm256_add_epi32(_mm256_loadu_si256(o2), hi));
      }
      const std::int32_t avs = arow[p];
      for (; j < n; ++j) orow[j] += avs * brow[j];
    }
  }
}

__attribute__((target("avx2"))) void gemm_i16_avx2(const MatI16& a,
                                                   const MatI16& b,
                                                   MatI32& out) {
  const int m = a.rows(), k = a.cols(), n = b.cols();
  if (n == 0) return;  // row() may be null on an empty matrix (memset UB)
  for (int i = 0; i < m; ++i) {
    std::int32_t* orow = out.row(i);
    std::memset(orow, 0, static_cast<std::size_t>(n) * sizeof(std::int32_t));
    const std::int16_t* arow = a.row(i);
    for (int p = 0; p < k; ++p) {
      const std::int16_t* brow = b.row(p);
      const __m256i av = _mm256_set1_epi32(arow[p]);
      int j = 0;
      for (; j + 8 <= n; j += 8) {
        const __m256i b32 = _mm256_cvtepi16_epi32(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(brow + j)));
        const __m256i prod = _mm256_mullo_epi32(av, b32);
        __m256i* o = reinterpret_cast<__m256i*>(orow + j);
        _mm256_storeu_si256(o, _mm256_add_epi32(_mm256_loadu_si256(o), prod));
      }
      const std::int32_t avs = arow[p];
      for (; j < n; ++j) orow[j] += avs * brow[j];
    }
  }
}

__attribute__((target("avx2"))) void gemm_f32_avx2(const MatF& a,
                                                   const MatF& b, MatF& out) {
  const int m = a.rows(), k = a.cols(), n = b.cols();
  if (n == 0) return;  // row() may be null on an empty matrix (memset UB)
  for (int i = 0; i < m; ++i) {
    float* orow = out.row(i);
    std::memset(orow, 0, static_cast<std::size_t>(n) * sizeof(float));
    const float* arow = a.row(i);
    for (int p = 0; p < k; ++p) {
      const float* brow = b.row(p);
      const __m256 av = _mm256_set1_ps(arow[p]);
      int j = 0;
      for (; j + 8 <= n; j += 8) {
        // Separate mul + add (no FMA in the target set): each orow[j]
        // accumulates the same rounded products in the same order as the
        // scalar loop.
        const __m256 prod = _mm256_mul_ps(av, _mm256_loadu_ps(brow + j));
        _mm256_storeu_ps(orow + j,
                         _mm256_add_ps(_mm256_loadu_ps(orow + j), prod));
      }
      const float avs = arow[p];
      for (; j < n; ++j) orow[j] += avs * brow[j];
    }
  }
}

__attribute__((target("avx2"))) void gemm_nt_i8_avx2(const MatI8& a,
                                                     const MatI8& b,
                                                     MatI32& out) {
  const int k = a.cols();
  for (int i = 0; i < a.rows(); ++i) {
    const std::int8_t* arow = a.row(i);
    std::int32_t* orow = out.row(i);
    for (int j = 0; j < b.rows(); ++j) orow[j] = dot_i8_avx2(arow, b.row(j), k);
  }
}

// --- AVX2 requantization ---------------------------------------------------
// round_clamp_avx2 (tensor/simd_x86.hpp) over the products v·m, |v·m| <
// 2^31·2^15 = 2^46. The products come from _mm256_mul_epi32 on the even/odd
// 32-bit lanes — it sign-extends the low dword of each 64-bit lane, which is
// exactly the int32 accumulator value.

/// Eight int32 lanes → eight clamped int32 results in lane order: multiply
/// the even and odd dwords separately (mul_epi32 eats the low dword of each
/// 64-bit lane), round/clamp each half, then re-interleave the low dwords.
__attribute__((target("avx2"))) __m256i requant_8lanes_avx2(
    const std::int32_t* in, __m256i mvec, __m256i bias, __m128i count,
    __m256i offset, __m256i offset_shifted, __m256i lo, __m256i hi) {
  const __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in));
  const __m256i pe = _mm256_mul_epi32(x, mvec);  // dwords 0,2,4,6
  const __m256i po = _mm256_mul_epi32(
      _mm256_shuffle_epi32(x, _MM_SHUFFLE(3, 3, 1, 1)), mvec);  // 1,3,5,7
  const __m256i re =
      round_clamp_avx2(pe, bias, count, offset, offset_shifted, lo, hi);
  const __m256i ro =
      round_clamp_avx2(po, bias, count, offset, offset_shifted, lo, hi);
  return _mm256_blend_epi32(re, _mm256_slli_epi64(ro, 32), 0b10101010);
}

__attribute__((target("avx2"))) void requantize_i8_avx2(const MatI32& acc,
                                                        std::int32_t mantissa,
                                                        int shift,
                                                        MatI8& out) {
  const __m256i mvec = _mm256_set1_epi64x(mantissa);
  const __m256i bias = _mm256_set1_epi64x(std::int64_t{1} << (shift - 1));
  const __m128i count = _mm_cvtsi32_si128(shift);
  const __m256i offset = _mm256_set1_epi64x(std::int64_t{1} << 62);
  const __m256i offset_shifted =
      _mm256_set1_epi64x((std::int64_t{1} << 62) >> shift);
  const __m256i lo = _mm256_set1_epi64x(-128);
  const __m256i hi = _mm256_set1_epi64x(127);
  // Byte 0 of each dword, per 128-bit lane (clamped → truncation is exact).
  const __m256i pick = _mm256_setr_epi8(
      0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,  //
      0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1);
  const __m256i join = _mm256_setr_epi32(0, 4, 0, 0, 0, 0, 0, 0);
  const int n = acc.cols();
  for (int r = 0; r < acc.rows(); ++r) {
    const std::int32_t* in = acc.row(r);
    std::int8_t* o = out.row(r);
    int c = 0;
    for (; c + 8 <= n; c += 8) {
      const __m256i merged = requant_8lanes_avx2(
          in + c, mvec, bias, count, offset, offset_shifted, lo, hi);
      const __m256i packed =
          _mm256_permutevar8x32_epi32(_mm256_shuffle_epi8(merged, pick), join);
      _mm_storel_epi64(reinterpret_cast<__m128i*>(o + c),
                       _mm256_castsi256_si128(packed));
    }
    for (; c < n; ++c)
      o[c] = saturate_i8(rounding_shift_right(
          static_cast<std::int64_t>(in[c]) * mantissa, shift));
  }
}

__attribute__((target("avx2"))) void requantize_i16_avx2(const MatI32& acc,
                                                         std::int32_t mantissa,
                                                         int shift,
                                                         MatI16& out) {
  const __m256i mvec = _mm256_set1_epi64x(mantissa);
  const __m256i bias = _mm256_set1_epi64x(std::int64_t{1} << (shift - 1));
  const __m128i count = _mm_cvtsi32_si128(shift);
  const __m256i offset = _mm256_set1_epi64x(std::int64_t{1} << 62);
  const __m256i offset_shifted =
      _mm256_set1_epi64x((std::int64_t{1} << 62) >> shift);
  const __m256i lo = _mm256_set1_epi64x(-32768);
  const __m256i hi = _mm256_set1_epi64x(32767);
  // Bytes 0–1 of each dword, per 128-bit lane.
  const __m256i pick = _mm256_setr_epi8(
      0, 1, 4, 5, 8, 9, 12, 13, -1, -1, -1, -1, -1, -1, -1, -1,  //
      0, 1, 4, 5, 8, 9, 12, 13, -1, -1, -1, -1, -1, -1, -1, -1);
  const __m256i join = _mm256_setr_epi32(0, 1, 4, 5, 0, 0, 0, 0);
  const int n = acc.cols();
  for (int r = 0; r < acc.rows(); ++r) {
    const std::int32_t* in = acc.row(r);
    std::int16_t* o = out.row(r);
    int c = 0;
    for (; c + 8 <= n; c += 8) {
      const __m256i merged = requant_8lanes_avx2(
          in + c, mvec, bias, count, offset, offset_shifted, lo, hi);
      const __m256i packed =
          _mm256_permutevar8x32_epi32(_mm256_shuffle_epi8(merged, pick), join);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(o + c),
                       _mm256_castsi256_si128(packed));
    }
    for (; c < n; ++c)
      o[c] = saturate_i16(rounding_shift_right(
          static_cast<std::int64_t>(in[c]) * mantissa, shift));
  }
}

// --- AVX2 LayerNorm row kernels --------------------------------------------
// Stats: 8 int16 lanes per iteration; squares via pmulld on sign-extended
// int32 (≤ 2¹⁵·2¹⁵ = 2³⁰, exact — pmaddwd would wrap on a (−32768)² pair),
// both reductions widened to four int64 lane accumulators, so any n is exact.
// Finish: 4 int64 lanes; t = n·g − sum stays within int32 for n ≤ 2¹⁴
// (|t| ≤ 2n·2¹⁵ ≤ 2³⁰), so mul_epi32 on the low dwords is exact, and both
// rounding shifts reuse the requantizer's branchless reformulation. The
// intermediate clamp bounds are a no-op by Cauchy–Schwarz: Σtⱼ² = n·V gives
// |norm| ≤ √n·2¹³ < 2²¹, hence |norm·γq| < 2⁵² — inside the emulated
// arithmetic shift's valid range.

__attribute__((target("avx2"))) void layernorm_stats_avx2(const std::int16_t* g,
                                                          int n,
                                                          std::int64_t* sum,
                                                          std::int64_t* sumsq) {
  __m256i sacc = _mm256_setzero_si256();
  __m256i qacc = _mm256_setzero_si256();
  int j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m128i raw =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(g + j));
    const __m256i v32 = _mm256_cvtepi16_epi32(raw);
    const __m256i sq32 = _mm256_mullo_epi32(v32, v32);
    sacc = _mm256_add_epi64(
        sacc, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(v32)));
    sacc = _mm256_add_epi64(
        sacc, _mm256_cvtepi32_epi64(_mm256_extracti128_si256(v32, 1)));
    qacc = _mm256_add_epi64(
        qacc, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(sq32)));
    qacc = _mm256_add_epi64(
        qacc, _mm256_cvtepi32_epi64(_mm256_extracti128_si256(sq32, 1)));
  }
  alignas(32) std::int64_t ls[4];
  alignas(32) std::int64_t lq[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(ls), sacc);
  _mm256_store_si256(reinterpret_cast<__m256i*>(lq), qacc);
  std::int64_t s = (ls[0] + ls[1]) + (ls[2] + ls[3]);
  std::int64_t q = (lq[0] + lq[1]) + (lq[2] + lq[3]);
  for (; j < n; ++j) {
    s += g[j];
    q += static_cast<std::int64_t>(g[j]) * g[j];
  }
  *sum = s;
  *sumsq = q;
}

__attribute__((target("avx2"))) void layernorm_finish_avx2(
    const std::int16_t* g, int n, std::int64_t sum, std::int32_t rs_mantissa,
    int norm_shift, int gamma_shift, const std::int32_t* gq,
    const std::int32_t* bq, std::int8_t* out) {
  const __m256i nvec = _mm256_set1_epi64x(n);
  const __m256i sumv = _mm256_set1_epi64x(sum);
  const __m256i mant = _mm256_set1_epi64x(rs_mantissa);
  const __m256i offset = _mm256_set1_epi64x(std::int64_t{1} << 62);
  const __m256i nbias = _mm256_set1_epi64x(std::int64_t{1} << (norm_shift - 1));
  const __m128i ncount = _mm_cvtsi32_si128(norm_shift);
  const __m256i noff_sh =
      _mm256_set1_epi64x((std::int64_t{1} << 62) >> norm_shift);
  const __m256i gbias =
      _mm256_set1_epi64x(std::int64_t{1} << (gamma_shift - 1));
  const __m128i gcount = _mm_cvtsi32_si128(gamma_shift);
  const __m256i goff_sh =
      _mm256_set1_epi64x((std::int64_t{1} << 62) >> gamma_shift);
  const __m256i wide_lo = _mm256_set1_epi64x(-(std::int64_t{1} << 40));
  const __m256i wide_hi = _mm256_set1_epi64x(std::int64_t{1} << 40);
  const __m256i i8lo = _mm256_set1_epi64x(-128);
  const __m256i i8hi = _mm256_set1_epi64x(127);
  alignas(32) std::int64_t lanes[4];
  int j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256i g64 = _mm256_cvtepi16_epi64(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(g + j)));
    const __m256i t = _mm256_sub_epi64(_mm256_mul_epi32(nvec, g64), sumv);
    const __m256i norm =
        round_clamp_avx2(_mm256_mul_epi32(t, mant), nbias, ncount, offset,
                         noff_sh, wide_lo, wide_hi);
    const __m256i gq64 = _mm256_cvtepi32_epi64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(gq + j)));
    const __m256i scaled =
        round_clamp_avx2(_mm256_mul_epi32(norm, gq64), gbias, gcount, offset,
                         goff_sh, wide_lo, wide_hi);
    const __m256i bq64 = _mm256_cvtepi32_epi64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(bq + j)));
    __m256i res = _mm256_add_epi64(scaled, bq64);
    res = _mm256_blendv_epi8(res, i8hi, _mm256_cmpgt_epi64(res, i8hi));
    res = _mm256_blendv_epi8(res, i8lo, _mm256_cmpgt_epi64(i8lo, res));
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), res);
    out[j] = static_cast<std::int8_t>(lanes[0]);
    out[j + 1] = static_cast<std::int8_t>(lanes[1]);
    out[j + 2] = static_cast<std::int8_t>(lanes[2]);
    out[j + 3] = static_cast<std::int8_t>(lanes[3]);
  }
  for (; j < n; ++j) {
    const std::int64_t t = static_cast<std::int64_t>(n) * g[j] - sum;
    const std::int64_t norm = rounding_shift_right(t * rs_mantissa, norm_shift);
    const std::int64_t scaled = rounding_shift_right(norm * gq[j], gamma_shift);
    out[j] = saturate_i8(scaled + bq[j]);
  }
}

// --- Packed int8 GEMM tiers -------------------------------------------------
// Register-blocked micro-kernels over the k-interleaved panels of
// tensor/pack.hpp. A tile is MR rows × NP panels (16·NP columns): its
// accumulators stay in registers across every k-group — vertical
// accumulation, no per-element horizontal sum — and each is stored once,
// with the bias added and the columns past n masked off.
//
// The VNNI tier runs vpdpbusd, which multiplies unsigned bytes by signed
// bytes. It feeds A as a ^ 0x80 = a + 128 (as u8), so a tile accumulates
// Σ(a + 128)·b = Σa·b + 128·Σb, and the store subtracts the pack's sum128.
// The AVX2 tier widens both operands to int16 and runs pmaddwd (|pair| ≤
// 2·128²), leaving each column as two int32 lane halves that the store folds
// once per tile with hadd + permute. Every sum wraps modulo 2³², so a tile's
// result is exact whenever it fits in int32 — the scalar loop's precondition.
//
// A's partial last k-group is read byte by byte (a_tail), never past the row;
// B's padding is zero there, so the missing bytes contribute nothing.

/// Bytes p .. p+3 of an A row as one little-endian word.
inline std::uint32_t a_word(const std::int8_t* src) {
  std::uint32_t w;
  std::memcpy(&w, src, sizeof w);
  return w;
}

/// The first `count` (< 4) bytes of an A row's last k-group, zero above.
inline std::uint32_t a_tail(const std::int8_t* src, int count) {
  std::uint32_t w = 0;
  for (int t = 0; t < count; ++t)
    w |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(src[t]))
         << (8 * t);
  return w;
}

/// One k-group's A words of rows i0 .. i0+MR-1 (the last group may be partial).
template <int MR>
void a_words(const MatI8& a, int i0, int g, std::uint32_t (&w)[MR]) {
  const int p = g * PackedI8::kGroupK;
  const int left = a.cols() - p;
  for (int r = 0; r < MR; ++r)
    w[r] = left >= PackedI8::kGroupK ? a_word(a.row(i0 + r) + p)
                                     : a_tail(a.row(i0 + r) + p, left);
}

constexpr std::uint32_t kFlip = 0x80808080u;  // a ^ 0x80 = a + 128 as u8

#define TFACC_TARGET_AVX512VNNI \
  __attribute__((target("avx512f,avx512vnni")))

/// AVX-512 VNNI: one zmm = one panel line (16 columns × 4 k).
struct Avx512VnniTier {
  static constexpr int kRows = 4, kPanels = 4;  // a 4 × 64 tile

  template <int MR, int NP>
  TFACC_TARGET_AVX512VNNI static void tile(const MatI8& a, int i0,
                                           const PackedI8& bp, int p0,
                                           const std::int32_t* bias,
                                           MatI32& out) {
    __m512i acc[MR][NP];
    for (int r = 0; r < MR; ++r)
      for (int v = 0; v < NP; ++v) acc[r][v] = _mm512_setzero_si512();
    const std::int8_t* panel0 = bp.panel(p0);
    const std::size_t stride = bp.panel_bytes();
    const int groups = bp.k_pad / PackedI8::kGroupK;
    for (int g = 0; g < groups; ++g) {
      std::uint32_t w[MR];
      a_words(a, i0, g, w);
      const std::int8_t* line =
          panel0 + static_cast<std::size_t>(g) * PackedI8::kLineBytes;
      __m512i b[NP];
      for (int v = 0; v < NP; ++v) b[v] = _mm512_load_si512(line + v * stride);
      for (int r = 0; r < MR; ++r) {
        const __m512i av = _mm512_set1_epi32(static_cast<int>(w[r] ^ kFlip));
        for (int v = 0; v < NP; ++v)
          acc[r][v] = _mm512_dpbusd_epi32(acc[r][v], av, b[v]);
      }
    }
    for (int v = 0; v < NP; ++v) {
      const int j = (p0 + v) * PackedI8::kPanelCols;
      const int cols = std::min(PackedI8::kPanelCols, bp.n - j);
      const auto mask = static_cast<__mmask16>((1u << cols) - 1u);
      __m512i corr = _mm512_sub_epi32(
          bias != nullptr ? _mm512_maskz_loadu_epi32(mask, bias + j)
                          : _mm512_setzero_si512(),
          _mm512_load_si512(bp.sum128.data() + j));
      for (int r = 0; r < MR; ++r)
        _mm512_mask_storeu_epi32(out.row(i0 + r) + j, mask,
                                 _mm512_add_epi32(acc[r][v], corr));
    }
  }
};

/// Store acc + bias to the first `cols` of out[j .. j+7] (cols ≥ 1).
__attribute__((target("avx2"))) inline void store8(std::int32_t* dst,
                                                   __m256i acc,
                                                   const std::int32_t* bias,
                                                   int cols) {
  const __m256i mask = _mm256_cmpgt_epi32(
      _mm256_set1_epi32(cols), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  if (bias != nullptr)
    acc = _mm256_add_epi32(acc, _mm256_maskload_epi32(bias, mask));
  _mm256_maskstore_epi32(dst, mask, acc);
}

/// AVX2: cvtepi8_epi16 + pmaddwd. A quarter line (4 columns × 4 k) widens to
/// one ymm of int16; pmaddwd against A's 4 k (broadcast to every column)
/// leaves each column as two adjacent int32 halves.
struct Avx2Tier {
  static constexpr int kRows = 3, kPanels = 1;  // a 3 × 16 tile

  template <int MR, int NP>
  __attribute__((target("avx2"))) static void tile(const MatI8& a, int i0,
                                                   const PackedI8& bp, int p0,
                                                   const std::int32_t* bias,
                                                   MatI32& out) {
    constexpr int NQ = 4 * NP;  // quarter lines per row
    __m256i acc[MR][NQ];
    for (int r = 0; r < MR; ++r)
      for (int q = 0; q < NQ; ++q) acc[r][q] = _mm256_setzero_si256();
    const std::int8_t* panel0 = bp.panel(p0);
    const std::size_t stride = bp.panel_bytes();
    const int groups = bp.k_pad / PackedI8::kGroupK;
    for (int g = 0; g < groups; ++g) {
      std::uint32_t w[MR];
      a_words(a, i0, g, w);
      __m256i av[MR];
      for (int r = 0; r < MR; ++r)
        av[r] = _mm256_broadcastq_epi64(_mm_cvtepi8_epi16(
            _mm_cvtsi32_si128(static_cast<int>(w[r]))));
      const std::int8_t* line =
          panel0 + static_cast<std::size_t>(g) * PackedI8::kLineBytes;
      for (int q = 0; q < NQ; ++q) {
        const __m256i b = _mm256_cvtepi8_epi16(_mm_load_si128(
            reinterpret_cast<const __m128i*>(line + (q / 4) * stride +
                                             (q % 4) * 16)));
        for (int r = 0; r < MR; ++r)
          acc[r][q] = _mm256_add_epi32(acc[r][q], _mm256_madd_epi16(av[r], b));
      }
    }
    // hadd(columns 0-3, columns 4-7) yields 64-bit lanes [c0c1, c4c5, c2c3,
    // c6c7]; permute 0xD8 puts them back in column order.
    for (int h = 0; h < NQ / 2; ++h) {
      const int j = p0 * PackedI8::kPanelCols + 8 * h;
      const int cols = std::min(8, bp.n - j);
      if (cols <= 0) continue;  // a half panel of padding only
      for (int r = 0; r < MR; ++r) {
        const __m256i sum = _mm256_permute4x64_epi64(
            _mm256_hadd_epi32(acc[r][2 * h], acc[r][2 * h + 1]), 0xD8);
        store8(out.row(i0 + r) + j, sum, bias != nullptr ? bias + j : nullptr,
               cols);
      }
    }
  }
};

using TileFn = void (*)(const MatI8&, int, const PackedI8&, int,
                        const std::int32_t*, MatI32&);

/// Tier::tile<mr, np> for runtime 1 ≤ mr ≤ kRows, 1 ≤ np ≤ kPanels.
template <class Tier, int MR, int NP = Tier::kPanels>
TileFn pick_panels(int np) {
  if constexpr (NP == 1) return &Tier::template tile<MR, 1>;
  else  // NOLINT(readability-else-after-return)
    return np == NP ? &Tier::template tile<MR, NP>
                    : pick_panels<Tier, MR, NP - 1>(np);
}

template <class Tier, int MR = Tier::kRows>
TileFn pick_tile(int mr, int np) {
  if constexpr (MR == 1) return pick_panels<Tier, 1>(np);
  else  // NOLINT(readability-else-after-return)
    return mr == MR ? pick_panels<Tier, MR>(np)
                    : pick_tile<Tier, MR - 1>(mr, np);
}

/// C = bias ⊕ A·B over the whole output, tile by tile: panel blocks outer
/// (a block of B stays cache-resident), row blocks inner.
template <class Tier>
void gemm_i8_packed_tiled(const MatI8& a, const PackedI8& bp,
                          const std::int32_t* bias, MatI32& out) {
  const int m = a.rows();
  const int panels = bp.n_pad / PackedI8::kPanelCols;
  for (int p0 = 0; p0 < panels; p0 += Tier::kPanels) {
    const int np = std::min(Tier::kPanels, panels - p0);
    for (int i0 = 0; i0 < m; i0 += Tier::kRows) {
      const int mr = std::min(Tier::kRows, m - i0);
      pick_tile<Tier>(mr, np)(a, i0, bp, p0, bias, out);
    }
  }
}

#undef TFACC_TARGET_AVX512VNNI

// --- SSE2 fallbacks (x86 baseline, no runtime check needed) ----------------

/// Sign-extend the low/high 8 bytes of an epi8 vector to epi16 (SSE2 has no
/// pmovsxbw): interleave-with-self then arithmetic-shift restores the sign.
std::int32_t dot_i8_sse2(const std::int8_t* a, const std::int8_t* b, int k) {
  __m128i acc = _mm_setzero_si128();
  int p = 0;
  for (; p + 16 <= k; p += 16) {
    const __m128i av =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + p));
    const __m128i bv =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + p));
    const __m128i alo = _mm_srai_epi16(_mm_unpacklo_epi8(av, av), 8);
    const __m128i ahi = _mm_srai_epi16(_mm_unpackhi_epi8(av, av), 8);
    const __m128i blo = _mm_srai_epi16(_mm_unpacklo_epi8(bv, bv), 8);
    const __m128i bhi = _mm_srai_epi16(_mm_unpackhi_epi8(bv, bv), 8);
    acc = _mm_add_epi32(acc, _mm_madd_epi16(alo, blo));
    acc = _mm_add_epi32(acc, _mm_madd_epi16(ahi, bhi));
  }
  __m128i s =
      _mm_add_epi32(acc, _mm_shuffle_epi32(acc, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  std::int32_t sum = _mm_cvtsi128_si32(s);
  for (; p < k; ++p) sum += static_cast<std::int32_t>(a[p]) * b[p];
  return sum;
}

void gemm_nt_i8_sse2(const MatI8& a, const MatI8& b, MatI32& out) {
  const int k = a.cols();
  for (int i = 0; i < a.rows(); ++i) {
    const std::int8_t* arow = a.row(i);
    std::int32_t* orow = out.row(i);
    for (int j = 0; j < b.rows(); ++j) orow[j] = dot_i8_sse2(arow, b.row(j), k);
  }
}

void gemm_f32_sse2(const MatF& a, const MatF& b, MatF& out) {
  const int m = a.rows(), k = a.cols(), n = b.cols();
  if (n == 0) return;  // row() may be null on an empty matrix (memset UB)
  for (int i = 0; i < m; ++i) {
    float* orow = out.row(i);
    std::memset(orow, 0, static_cast<std::size_t>(n) * sizeof(float));
    const float* arow = a.row(i);
    for (int p = 0; p < k; ++p) {
      const float* brow = b.row(p);
      const __m128 av = _mm_set1_ps(arow[p]);
      int j = 0;
      for (; j + 4 <= n; j += 4) {
        const __m128 prod = _mm_mul_ps(av, _mm_loadu_ps(brow + j));
        _mm_storeu_ps(orow + j, _mm_add_ps(_mm_loadu_ps(orow + j), prod));
      }
      const float avs = arow[p];
      for (; j < n; ++j) orow[j] += avs * brow[j];
    }
  }
}

#endif  // TFACC_SIMD_X86

#if TFACC_KERNELS_NEON

std::int32_t dot_i8_neon(const std::int8_t* a, const std::int8_t* b, int k) {
  int32x4_t acc = vdupq_n_s32(0);
  int p = 0;
  for (; p + 16 <= k; p += 16) {
    const int8x16_t av = vld1q_s8(a + p);
    const int8x16_t bv = vld1q_s8(b + p);
    acc = vpadalq_s16(acc, vmull_s8(vget_low_s8(av), vget_low_s8(bv)));
    acc = vpadalq_s16(acc, vmull_s8(vget_high_s8(av), vget_high_s8(bv)));
  }
  std::int32_t sum = vaddvq_s32(acc);
  for (; p < k; ++p) sum += static_cast<std::int32_t>(a[p]) * b[p];
  return sum;
}

void gemm_nt_i8_neon(const MatI8& a, const MatI8& b, MatI32& out) {
  const int k = a.cols();
  for (int i = 0; i < a.rows(); ++i) {
    const std::int8_t* arow = a.row(i);
    std::int32_t* orow = out.row(i);
    for (int j = 0; j < b.rows(); ++j) orow[j] = dot_i8_neon(arow, b.row(j), k);
  }
}

#endif  // TFACC_KERNELS_NEON

// hot-path: region end

}  // namespace

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kScalar:
      return "scalar";
    case Kind::kSimd:
      return "simd";
  }
  return "?";
}

bool parse_kind(const char* spec, Kind* out) {
  if (spec == nullptr || out == nullptr) return false;
  const std::string_view s(spec);
  if (s == "scalar") *out = Kind::kScalar;
  else if (s == "simd") *out = Kind::kSimd;
  else return false;
  return true;
}

Kind selected() { return kind_slot().load(kRelaxedDispatchOrder); }

void set_kind(Kind kind) {
  kind_slot().store(kind, kRelaxedDispatchOrder);
}

Kind refresh_from_env() {
  const Kind kind = kind_from_env_or_default();
  set_kind(kind);
  return kind;
}

bool simd_available() {
#if TFACC_SIMD_X86
  return true;  // SSE2 is the x86-64 baseline; AVX2 upgraded at runtime
#elif TFACC_KERNELS_NEON
  return true;
#else
  return false;
#endif
}

const char* capability() {
#if TFACC_SIMD_X86
  return cpu_has_avx2() ? "avx2" : "sse2";
#elif TFACC_KERNELS_NEON
  return "neon";
#else
  return "generic";
#endif
}

// --- Dispatch --------------------------------------------------------------
// Each entry point runs its vector path when kSimd is selected and the host
// has one, and the scalar reference otherwise.

namespace {

// Unused where the host has no vector path at all.
[[maybe_unused]] bool simd_selected() { return selected() == Kind::kSimd; }

}  // namespace

void gemm_f32_into(const MatF& a, const MatF& b, MatF& out) {
  TFACC_CHECK_ARG(a.cols() == b.rows());
  TFACC_CHECK_ARG(out.rows() == a.rows() && out.cols() == b.cols());
#if TFACC_SIMD_X86
  if (simd_selected()) {
    if (cpu_has_avx2()) gemm_f32_avx2(a, b, out);
    else gemm_f32_sse2(a, b, out);
    return;
  }
#endif
  // NEON has no f32 path: it would risk FMA contraction changing the scalar
  // path's per-element rounding.
  gemm_scalar(a, b, out);
}

void gemm_i8_into(const MatI8& a, const MatI8& b, MatI32& out) {
  TFACC_CHECK_ARG(a.cols() == b.rows());
  TFACC_CHECK_ARG(out.rows() == a.rows() && out.cols() == b.cols());
#if TFACC_SIMD_X86
  if (simd_selected() && cpu_has_avx2()) {
    gemm_i8_avx2(a, b, out);
    return;
  }
#endif
  gemm_scalar(a, b, out);
}

void gemm_i16_into(const MatI16& a, const MatI16& b, MatI32& out) {
  TFACC_CHECK_ARG(a.cols() == b.rows());
  TFACC_CHECK_ARG(out.rows() == a.rows() && out.cols() == b.cols());
#if TFACC_SIMD_X86
  if (simd_selected() && cpu_has_avx2()) {
    gemm_i16_avx2(a, b, out);
    return;
  }
#endif
  gemm_scalar(a, b, out);
}

void gemm_nt_f32_into(const MatF& a, const MatF& b, MatF& out) {
  TFACC_CHECK_ARG(a.cols() == b.cols());
  TFACC_CHECK_ARG(out.rows() == a.rows() && out.cols() == b.rows());
  // The f32 reduction must keep one accumulator in ascending-p order to stay
  // bit-identical, so both kinds run the scalar loop.
  gemm_nt_scalar(a, b, out);
}

void gemm_nt_i8_into(const MatI8& a, const MatI8& b, MatI32& out) {
  TFACC_CHECK_ARG(a.cols() == b.cols());
  TFACC_CHECK_ARG(out.rows() == a.rows() && out.cols() == b.rows());
#if TFACC_SIMD_X86
  if (simd_selected()) {
    if (cpu_has_avx2()) gemm_nt_i8_avx2(a, b, out);
    else gemm_nt_i8_sse2(a, b, out);
    return;
  }
#elif TFACC_KERNELS_NEON
  if (simd_selected()) {
    gemm_nt_i8_neon(a, b, out);
    return;
  }
#endif
  gemm_nt_scalar(a, b, out);
}

namespace {

/// The fastest packed tier this host supports, chosen once.
GemmTier host_tier() {
  static const GemmTier tier = [] {
    for (const GemmTier t : {GemmTier::kAvx512Vnni, GemmTier::kAvx2})
      if (detail::tier_supported(t)) return t;
    return GemmTier::kScalar;
  }();
  return tier;
}

void gemm_i8_packed_dispatch(const MatI8& a, const PackedI8& bp,
                             const std::int32_t* bias, MatI32& out) {
  detail::gemm_i8_packed_tier_into(
      simd_selected() ? host_tier() : GemmTier::kScalar, a, bp, bias, out);
}

}  // namespace

const char* gemm_tier() { return detail::tier_name(host_tier()); }

void gemm_i8_packed_into(const MatI8& a, const PackedI8& bp, MatI32& out) {
  gemm_i8_packed_dispatch(a, bp, nullptr, out);
}

void gemm_i8_packed_bias_into(const MatI8& a, const PackedI8& bp,
                              const std::vector<std::int32_t>& bias,
                              MatI32& out) {
  TFACC_CHECK_ARG(static_cast<int>(bias.size()) == bp.n);
  gemm_i8_packed_dispatch(a, bp, bias.data(), out);
}

namespace detail {

const char* tier_name(GemmTier tier) {
  switch (tier) {
    case GemmTier::kAvx512Vnni:
      return "avx512vnni";
    case GemmTier::kAvx2:
      return "avx2";
    case GemmTier::kScalar:
      return "scalar";
  }
  return "?";
}

bool tier_supported(GemmTier tier) {
#if TFACC_SIMD_X86
  switch (tier) {
    case GemmTier::kAvx512Vnni: {
      static const bool has = __builtin_cpu_supports("avx512f") &&
                              __builtin_cpu_supports("avx512vnni");
      return has;
    }
    case GemmTier::kAvx2:
      return cpu_has_avx2();
    case GemmTier::kScalar:
      return true;
  }
  return false;
#else
  return tier == GemmTier::kScalar;
#endif
}

bool gemm_i8_packed_tier_into(GemmTier tier, const MatI8& a,
                              const PackedI8& bp, const std::int32_t* bias,
                              MatI32& out) {
  TFACC_CHECK_ARG(a.cols() == bp.k);
  TFACC_CHECK_ARG(out.rows() == a.rows() && out.cols() == bp.n);
  if (!tier_supported(tier)) return false;
  switch (tier) {
#if TFACC_SIMD_X86
    case GemmTier::kAvx512Vnni:
      gemm_i8_packed_tiled<Avx512VnniTier>(a, bp, bias, out);
      return true;
    case GemmTier::kAvx2:
      gemm_i8_packed_tiled<Avx2Tier>(a, bp, bias, out);
      return true;
#endif
    default:
      gemm_i8_packed_scalar(a, bp, bias, out);
      return true;
  }
}

}  // namespace detail

void requantize_i8_into(const MatI32& acc, std::int32_t mantissa, int shift,
                        MatI8& out) {
  TFACC_CHECK_ARG(out.rows() == acc.rows() && out.cols() == acc.cols());
#if TFACC_SIMD_X86
  if (simd_selected() && cpu_has_avx2() && rounding_shift_vectorizable(shift)) {
    requantize_i8_avx2(acc, mantissa, shift, out);
    return;
  }
#endif
  requantize_scalar(acc, mantissa, shift, out);
}

void requantize_i16_into(const MatI32& acc, std::int32_t mantissa, int shift,
                         MatI16& out) {
  TFACC_CHECK_ARG(out.rows() == acc.rows() && out.cols() == acc.cols());
#if TFACC_SIMD_X86
  if (simd_selected() && cpu_has_avx2() && rounding_shift_vectorizable(shift)) {
    requantize_i16_avx2(acc, mantissa, shift, out);
    return;
  }
#endif
  requantize_scalar(acc, mantissa, shift, out);
}

void layernorm_stats(const std::int16_t* g, int n, std::int64_t* sum,
                     std::int64_t* sumsq) {
  TFACC_CHECK_ARG(n >= 0);
#if TFACC_SIMD_X86
  if (simd_selected() && cpu_has_avx2()) {
    layernorm_stats_avx2(g, n, sum, sumsq);
    return;
  }
#endif
  layernorm_stats_scalar(g, n, sum, sumsq);
}

void layernorm_finish_into(const std::int16_t* g, int n, std::int64_t sum,
                           std::int32_t rs_mantissa, int norm_shift,
                           int gamma_shift, const std::int32_t* gq,
                           const std::int32_t* bq, std::int8_t* out) {
  TFACC_CHECK_ARG(n >= 0);
#if TFACC_SIMD_X86
  // t = n·g − sum must fit the int32 low dword (n ≤ 2¹⁴ bounds |t| ≤ 2³⁰).
  if (simd_selected() && cpu_has_avx2() && n <= 16384 &&
      rounding_shift_vectorizable(norm_shift) &&
      rounding_shift_vectorizable(gamma_shift)) {
    layernorm_finish_avx2(g, n, sum, rs_mantissa, norm_shift, gamma_shift, gq,
                          bq, out);
    return;
  }
#endif
  layernorm_finish_scalar(g, n, sum, rs_mantissa, norm_shift, gamma_shift, gq,
                          bq, out);
}

}  // namespace tfacc::kernels

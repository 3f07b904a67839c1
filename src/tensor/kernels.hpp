// SIMD GEMM microkernels behind a runtime-checked dispatch table.
//
// Two implementations of every GEMM, selectable per process:
//
//   kind      | implementation
//   ----------|------------------------------------------------------------
//   kScalar   | the original tensor/ops triple loops, kept verbatim as the
//             | reference semantics (and the perf baseline for the 2× gate)
//   kSimd     | intrinsics (AVX-512 VNNI / AVX2 / SSE2 / NEON)
//             | chosen by a *runtime* CPU check — the binary is compiled
//             | without -march so it runs anywhere; an op with no vector
//             | path on the host runs kScalar
//
// Selection: `TFACC_KERNEL=scalar|simd` (read once at first use),
// overridable with set_kind() for A/B benches and tests. Default is kSimd.
//
// Bit-identity contract (enforced by tests/test_kernels.cpp and the
// cross-backend equivalence suites):
//  * Integer kernels (int8→int32, int16→int32) are exact — integer addition
//    is associative, so any vectorization reorder is bit-identical.
//    int16 inputs must keep |Σ a·b| within int32 (quantized values do).
//  * Float kernels preserve the scalar path's per-element summation order
//    (ascending p, one accumulator per output element, no FMA contraction),
//    so both kinds produce bit-identical floats — tolerance 0, pinned
//    explicitly in the tests. This is why the f32 GEMM vectorizes across
//    output columns rather than across the reduction, and why the f32 Q·Kᵀ
//    kernel (contiguous only along the reduction) runs the scalar loop.
//
// The *_into kernels write a pre-shaped `out` and perform no allocation —
// they are the hot-path seam under decode_step_batch.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/matrix.hpp"
#include "tensor/pack.hpp"

namespace tfacc::kernels {

/// The values are pinned: kSimd keeps 2 from when a third kind sat at 1, so
/// the ctest names gtest derives from the parameter bytes stay stable.
enum class Kind { kScalar = 0, kSimd = 2 };

const char* kind_name(Kind kind);

/// Parse "scalar" | "simd"; returns false on anything else.
bool parse_kind(const char* spec, Kind* out);

/// The process-wide selected kernel (TFACC_KERNEL env var, default simd).
Kind selected();

/// Override the selected kernel (benches/tests; atomic, any thread).
void set_kind(Kind kind);

/// Re-read TFACC_KERNEL and make it the selection. Throws CheckError on an
/// unparseable value. Returns the new selection.
Kind refresh_from_env();

/// True when this host has a vector unit the kSimd paths can use.
bool simd_available();

/// Host vector capability, for the BENCH_*.json host stanza and the
/// perf-gate capability match: "avx2" | "sse2" | "neon" | "generic".
const char* capability();

/// The packed int8 GEMM tier kSimd runs on this host, chosen once by
/// __builtin_cpu_supports: "avx512vnni" | "avx2" | "scalar".
/// Reported beside capability(), which stays the perf-gate match key.
const char* gemm_tier();

// --- Dispatched GEMMs (out must be pre-shaped; overwritten, no alloc) ------

/// C = A·B, float. Bit-identical across kinds (fixed summation order).
void gemm_f32_into(const MatF& a, const MatF& b, MatF& out);

/// C = A·B, int8 operands, int32 accumulation. Exact.
void gemm_i8_into(const MatI8& a, const MatI8& b, MatI32& out);

/// C = A·B, int16 operands, int32 accumulation. Exact within int32 range.
void gemm_i16_into(const MatI16& a, const MatI16& b, MatI32& out);

/// C = A·Bᵀ, float (attention scores). Both kinds run the scalar loop.
void gemm_nt_f32_into(const MatF& a, const MatF& b, MatF& out);

/// C = A·Bᵀ, int8 operands, int32 accumulation. Exact.
void gemm_nt_i8_into(const MatI8& a, const MatI8& b, MatI32& out);

// --- Packed-B GEMMs (B pre-packed at weight-load time, tensor/pack.hpp) ----

/// C = A·B with B packed. Exact (identical to gemm_i8 on unpack(bp)).
void gemm_i8_packed_into(const MatI8& a, const PackedI8& bp, MatI32& out);

/// C = bias ⊕ A·B with B packed — the bias seeds the accumulator, which is
/// exactly add_bias_i32(gemm_i8(a, b), bias) in one pass.
void gemm_i8_packed_bias_into(const MatI8& a, const PackedI8& bp,
                              const std::vector<std::int32_t>& bias,
                              MatI32& out);

namespace detail {

/// The packed int8 GEMM tiers (src/tensor/kernels.cpp), fastest first.
enum class GemmTier { kAvx512Vnni, kAvx2, kScalar };

const char* tier_name(GemmTier tier);

/// True when this host can run `tier` (kScalar: always).
bool tier_supported(GemmTier tier);

/// Test seam: C = bias ⊕ A·B on exactly `tier`, whatever kind is selected
/// (`bias` may be null). Returns false, leaving `out` untouched, when the
/// host lacks the tier.
bool gemm_i8_packed_tier_into(GemmTier tier, const MatI8& a,
                              const PackedI8& bp, const std::int32_t* bias,
                              MatI32& out);

}  // namespace detail

// --- Dispatched requantization ---------------------------------------------
// out = saturate(round((acc · mantissa) >> shift)) per element — the hardware
// requantizer (FixedPointScale::apply_i8/apply_i16) over a whole accumulator
// matrix. The rounding is half-away-from-zero, exactly like
// rounding_shift_right; both kinds are bit-identical (the AVX2 path uses a
// branchless reformulation proven equal for 1 ≤ shift ≤ 48, scalar
// otherwise — see tensor/simd_x86.hpp).

/// out(r,c) = FixedPointScale{mantissa, shift}.apply_i8(acc(r,c)).
void requantize_i8_into(const MatI32& acc, std::int32_t mantissa, int shift,
                        MatI8& out);

/// out(r,c) = FixedPointScale{mantissa, shift}.apply_i16(acc(r,c)).
void requantize_i16_into(const MatI32& acc, std::int32_t mantissa, int shift,
                         MatI16& out);

// --- Dispatched LayerNorm row kernels --------------------------------------
// The fixed-point LayerNorm datapath of hwarith/layernorm_unit.cpp, split
// into its two row loops so the hot serve path can vectorize them.
// Integer-exact in both kinds: the stats loop is a pure integer reduction
// (associative), and the finish loop is per-element independent — the AVX2
// variant reuses the requantizer's branchless rounding-shift reformulation,
// proven equal for 1 <= shift <= 48 (scalar fallback otherwise).

/// ΣG and ΣG² of one n-wide INT16 row (Fig. 7 step 1 accumulators).
void layernorm_stats(const std::int16_t* g, int n, std::int64_t* sum,
                     std::int64_t* sumsq);

/// The γ/β finish loop of LayerNormUnit::finish_row, per element j:
///   t      = n·g[j] − sum
///   norm   = rounding_shift_right(t · rs_mantissa, norm_shift)
///   scaled = rounding_shift_right(norm · gq[j], gamma_shift)
///   out[j] = saturate_i8(scaled + bq[j])
/// `norm_shift` may be <= 0 (a left shift), exactly like the scalar loop.
void layernorm_finish_into(const std::int16_t* g, int n, std::int64_t sum,
                           std::int32_t rs_mantissa, int norm_shift,
                           int gamma_shift, const std::int32_t* gq,
                           const std::int32_t* bq, std::int8_t* out);

}  // namespace tfacc::kernels

// Kernel suite: the SIMD GEMM dispatch must be bit-identical to the scalar
// reference on every shape (ragged tails, 1×1, empty edges), the packed-B
// layout must round-trip and stay cache-line aligned, the TFACC_KERNEL knob
// must parse/refresh correctly, and — the central invariant — a warm
// packed decode step must perform ZERO heap allocations on all three
// backends (enforced with a global operator-new counter).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/fixed_point.hpp"
#include "common/random.hpp"
#include "core/backend.hpp"
#include "hwarith/softmax_unit.hpp"
#include "quant/qtransformer.hpp"
#include "reference/transformer.hpp"
#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"
#include "tensor/pack.hpp"

// --- Global allocation counter ----------------------------------------------
// Counts every route into the heap (plain, nothrow, aligned, array). The
// zero-allocation tests reset it, run a warm step, and require no growth.
// Definitions live at global scope; all other state stays in tfacc::.

namespace {
std::atomic<long> g_heap_allocs{0};

void* counted_alloc(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t padded = (size + align - 1) / align * align;
  void* p = std::aligned_alloc(align, padded ? padded : align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(al));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace tfacc {
namespace {

/// RAII kernel-kind override: restores the previous selection on scope exit
/// so test order never leaks a kind into another test.
class KindGuard {
 public:
  explicit KindGuard(kernels::Kind kind) : saved_(kernels::selected()) {
    kernels::set_kind(kind);
  }
  ~KindGuard() { kernels::set_kind(saved_); }
  KindGuard(const KindGuard&) = delete;
  KindGuard& operator=(const KindGuard&) = delete;

 private:
  kernels::Kind saved_;
};

struct Shape {
  int m, k, n;
};

// Ragged tails (non-multiples of every vector width), singletons, and empty
// edges. k = 0 must yield an all-zero (bias-only) accumulator.
const Shape kShapes[] = {
    {1, 1, 1},  {1, 7, 1},   {5, 1, 3},   {3, 5, 7},    {4, 64, 64},
    {2, 66, 3}, {17, 33, 65}, {8, 127, 31}, {0, 4, 4},   {4, 0, 4},
    {4, 4, 0},  {1, 256, 16}, {9, 100, 100},
};

MatI8 rand_i8(int r, int c, Rng& rng) {
  MatI8 m(r, c);
  fill_uniform_i8(m, rng);
  return m;
}

MatI16 rand_i16(int r, int c, Rng& rng) {
  MatI16 m(r, c);
  for (int i = 0; i < r; ++i)
    for (int j = 0; j < c; ++j)
      m(i, j) = static_cast<std::int16_t>(rng.uniform_int(-1000, 1000));
  return m;
}

MatF rand_f32(int r, int c, Rng& rng) {
  MatF m(r, c);
  fill_uniform(m, rng, -1.0f, 1.0f);
  return m;
}

template <typename T>
void expect_same(const Matrix<T>& got, const Matrix<T>& want,
                 const char* what, const Shape& s) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (int r = 0; r < got.rows(); ++r)
    for (int c = 0; c < got.cols(); ++c)
      ASSERT_EQ(got(r, c), want(r, c))
          << what << " (" << s.m << 'x' << s.k << 'x' << s.n << ") at (" << r
          << ',' << c << ") under kernel "
          << kernels::kind_name(kernels::selected());
}

// --- Cross-kind bit-identity over the shape grid ----------------------------

class KernelEquivalence : public ::testing::TestWithParam<kernels::Kind> {};

TEST_P(KernelEquivalence, MatchesScalarBitExact) {
  Rng rng(1234);
  for (const Shape& s : kShapes) {
    const MatI8 a8 = rand_i8(s.m, s.k, rng);
    const MatI8 b8 = rand_i8(s.k, s.n, rng);
    const MatI16 a16 = rand_i16(s.m, s.k, rng);
    const MatI16 b16 = rand_i16(s.k, s.n, rng);
    const MatF af = rand_f32(s.m, s.k, rng);
    const MatF bf = rand_f32(s.k, s.n, rng);
    const MatF bt = rand_f32(s.n, s.k, rng);  // for A·Bᵀ
    const MatI8 b8t = rand_i8(s.n, s.k, rng);
    std::vector<std::int32_t> bias(static_cast<std::size_t>(s.n));
    for (auto& v : bias)
      v = rng.uniform_int(-100000, 100000);

    MatI32 want_i8(s.m, s.n), want_i16(s.m, s.n), want_nt_i8(s.m, s.n);
    MatF want_f(s.m, s.n), want_nt_f(s.m, s.n);
    {
      KindGuard g(kernels::Kind::kScalar);
      kernels::gemm_i8_into(a8, b8, want_i8);
      kernels::gemm_i16_into(a16, b16, want_i16);
      kernels::gemm_f32_into(af, bf, want_f);
      kernels::gemm_nt_f32_into(af, bt, want_nt_f);
      kernels::gemm_nt_i8_into(a8, b8t, want_nt_i8);
    }

    KindGuard g(GetParam());
    MatI32 got_i32(s.m, s.n);
    kernels::gemm_i8_into(a8, b8, got_i32);
    expect_same(got_i32, want_i8, "gemm_i8", s);
    kernels::gemm_i16_into(a16, b16, got_i32);
    expect_same(got_i32, want_i16, "gemm_i16", s);
    MatF got_f(s.m, s.n);
    kernels::gemm_f32_into(af, bf, got_f);
    expect_same(got_f, want_f, "gemm_f32", s);
    kernels::gemm_nt_f32_into(af, bt, got_f);
    expect_same(got_f, want_nt_f, "gemm_nt_f32", s);
    kernels::gemm_nt_i8_into(a8, b8t, got_i32);
    expect_same(got_i32, want_nt_i8, "gemm_nt_i8", s);

    // Packed-B forms against the dense reference results.
    const PackedI8 p8 = pack_b_i8(b8);
    kernels::gemm_i8_packed_into(a8, p8, got_i32);
    expect_same(got_i32, want_i8, "gemm_i8_packed", s);

    // Fused bias: exactly add_bias_i32(gemm_i8(a, b), bias).
    const MatI32 want_bias = add_bias_i32(want_i8, bias);
    kernels::gemm_i8_packed_bias_into(a8, p8, bias, got_i32);
    expect_same(got_i32, want_bias, "gemm_i8_packed_bias", s);
  }
}

TEST_P(KernelEquivalence, RequantizeMatchesFixedPointScale) {
  Rng rng(4321);
  KindGuard g(GetParam());
  // Shifts sweep the AVX2 fast path (1..48), its shift<1 fallback, and the
  // saturating regime (small shifts push values far past ±127 / ±32767).
  for (const int shift : {0, 1, 2, 7, 15, 20, 31, 48, 50}) {
    const FixedPointScale s{/*mantissa=*/rng.uniform_int(1 << 14,
                                                         (1 << 15) - 1),
                            shift};
    for (const int rows : {1, 3, 16}) {
      for (const int cols : {1, 7, 8, 64, 100}) {
        MatI32 acc(rows, cols);
        for (int r = 0; r < rows; ++r)
          for (int c = 0; c < cols; ++c)
            acc(r, c) = rng.uniform_int(std::numeric_limits<int>::min() / 2,
                                        std::numeric_limits<int>::max() / 2);
        // Pin the extremes onto the first row.
        acc(0, 0) = std::numeric_limits<std::int32_t>::max();
        if (cols > 1) acc(0, 1) = std::numeric_limits<std::int32_t>::min();

        MatI8 got8(rows, cols);
        kernels::requantize_i8_into(acc, s.mantissa, s.shift, got8);
        MatI16 got16(rows, cols);
        kernels::requantize_i16_into(acc, s.mantissa, s.shift, got16);
        for (int r = 0; r < rows; ++r)
          for (int c = 0; c < cols; ++c) {
            ASSERT_EQ(got8(r, c), s.apply_i8(acc(r, c)))
                << "requantize_i8 shift=" << shift << " at (" << r << ','
                << c << ") under kernel "
                << kernels::kind_name(kernels::selected());
            ASSERT_EQ(got16(r, c), s.apply_i16(acc(r, c)))
                << "requantize_i16 shift=" << shift << " at (" << r << ','
                << c << ") under kernel "
                << kernels::kind_name(kernels::selected());
          }
      }
    }
  }
}

// --- LayerNorm row kernels (PR 9) -------------------------------------------
// The dispatched stats/finish loops must be bit-identical to scalar over the
// serve datapath's envelope: ragged n (vector tails), constant rows (zero
// variance — t = n·g − sum vanishes), extreme INT16 values, and every
// norm/gamma shift class the AVX2 path accepts, plus the fallback edges
// (n > 16384, shifts outside [1, 48] including left shifts) where dispatch
// must detour to the scalar loop.

struct LayerNormCase {
  int norm_shift, gamma_shift;
  int max_mant;  // keeps |norm| inside the AVX2 path's proven envelope
  int max_n;
};

void expect_layernorm_rows_match(const std::vector<LayerNormCase>& cases,
                                 const std::vector<int>& sizes,
                                 kernels::Kind kind, int16_t g_lo,
                                 int16_t g_hi) {
  Rng rng(5150);
  for (const int n : sizes) {
    // Three row flavors: random, constant (v == 0), alternating extremes.
    for (int flavor = 0; flavor < 3; ++flavor) {
      std::vector<std::int16_t> g(static_cast<std::size_t>(n));
      for (int j = 0; j < n; ++j) {
        if (flavor == 0)
          g[static_cast<std::size_t>(j)] =
              static_cast<std::int16_t>(rng.uniform_int(g_lo, g_hi));
        else if (flavor == 1)
          g[static_cast<std::size_t>(j)] = 7;
        else
          g[static_cast<std::size_t>(j)] = static_cast<std::int16_t>(
              j % 2 == 0 ? g_hi : (j % 4 == 1 ? g_lo : 0));
      }
      std::int64_t want_sum = 0, want_sumsq = 0;
      {
        KindGuard guard(kernels::Kind::kScalar);
        kernels::layernorm_stats(g.data(), n, &want_sum, &want_sumsq);
      }
      std::int64_t got_sum = 0, got_sumsq = 0;
      {
        KindGuard guard(kind);
        kernels::layernorm_stats(g.data(), n, &got_sum, &got_sumsq);
      }
      EXPECT_EQ(got_sum, want_sum)
          << "layernorm_stats sum, n=" << n << " flavor=" << flavor
          << " under " << kernels::kind_name(kind);
      EXPECT_EQ(got_sumsq, want_sumsq)
          << "layernorm_stats sumsq, n=" << n << " flavor=" << flavor
          << " under " << kernels::kind_name(kind);

      for (const LayerNormCase& c : cases) {
        if (n > c.max_n) continue;
        const std::int32_t mant = rng.uniform_int(1, c.max_mant);
        std::vector<std::int32_t> gq(static_cast<std::size_t>(n));
        std::vector<std::int32_t> bq(static_cast<std::size_t>(n));
        for (int j = 0; j < n; ++j) {
          gq[static_cast<std::size_t>(j)] =
              rng.uniform_int(-(1 << 20), 1 << 20);
          bq[static_cast<std::size_t>(j)] = rng.uniform_int(-100000, 100000);
        }
        std::vector<std::int8_t> want(static_cast<std::size_t>(n));
        std::vector<std::int8_t> got(static_cast<std::size_t>(n));
        {
          KindGuard guard(kernels::Kind::kScalar);
          kernels::layernorm_finish_into(g.data(), n, want_sum, mant,
                                         c.norm_shift, c.gamma_shift,
                                         gq.data(), bq.data(), want.data());
        }
        {
          KindGuard guard(kind);
          kernels::layernorm_finish_into(g.data(), n, want_sum, mant,
                                         c.norm_shift, c.gamma_shift,
                                         gq.data(), bq.data(), got.data());
        }
        EXPECT_EQ(got, want)
            << "layernorm_finish, n=" << n << " flavor=" << flavor
            << " norm_shift=" << c.norm_shift
            << " gamma_shift=" << c.gamma_shift << " under "
            << kernels::kind_name(kind);
      }
    }
  }
}

TEST_P(KernelEquivalence, LayerNormRowsMatchScalarBitExact) {
  // AVX2-eligible shift classes. max_mant bounds |t·mant| >> norm_shift so
  // the intermediate norm stays within the int32 range the vector gamma
  // stage multiplies from — the envelope the real datapath guarantees.
  const std::vector<LayerNormCase> cases = {
      {1, 7, 16, 64},          {14, 1, 32767, 16384},
      {20, 7, 32767, 16384},   {33, 48, 32767, 16384},
      {48, 20, 32767, 16384},
  };
  expect_layernorm_rows_match(cases, {1, 3, 7, 8, 15, 64, 100, 1023, 16384},
                              GetParam(), -32768, 32767);
}

TEST_P(KernelEquivalence, LayerNormFinishFallbackEdges) {
  // Outside the AVX2 gate the simd selection must detour to the scalar loop:
  // n > 16384, shift 0, left shifts (norm_shift < 0), and shifts > 48.
  // Magnitudes are kept small so the left-shifted intermediates stay exact.
  const std::vector<LayerNormCase> big_n = {{20, 7, 1000, 1 << 20}};
  expect_layernorm_rows_match(big_n, {16385, 16390}, GetParam(), -1000, 1000);
  const std::vector<LayerNormCase> edge_shifts = {
      {0, 7, 1000, 100},  {-2, 7, 1000, 100},  {49, 7, 1000, 100},
      {20, 0, 1000, 100}, {20, 49, 1000, 100},
  };
  expect_layernorm_rows_match(edge_shifts, {1, 5, 40, 100}, GetParam(),
                              -1000, 1000);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, KernelEquivalence,
                         ::testing::Values(kernels::Kind::kSimd),
                         [](const auto& info) {
                           return std::string(kernels::kind_name(info.param));
                         });

// --- Softmax row model (PR 9) -----------------------------------------------
// The batched AVX2 row path inside SoftmaxUnit::row dispatches off the same
// kernel knob; the simd selection must produce INT8 probability rows
// bit-identical to scalar, including the gates that force the scalar stages:
// n < 8, a fully masked row, and an unmasked spread wider than int32.

TEST(SoftmaxRowDispatch, RowsMatchScalarBitExact) {
  Rng rng(2718);
  for (const double d_scale : {0.02, 1e-4}) {
    const hw::SoftmaxUnit unit(d_scale);
    for (const int n : {1, 5, 8, 24, 33, 100}) {
      for (int flavor = 0; flavor < 4; ++flavor) {
        std::vector<std::int32_t> d(static_cast<std::size_t>(n));
        std::vector<std::uint8_t> mask(static_cast<std::size_t>(n), 0);
        for (int j = 0; j < n; ++j)
          d[static_cast<std::size_t>(j)] = rng.uniform_int(-200000, 200000);
        if (flavor == 1)
          for (int j = 0; j < n; ++j)
            mask[static_cast<std::size_t>(j)] =
                static_cast<std::uint8_t>(rng.uniform_int(0, 1));
        if (flavor == 2)  // fully masked: all-zero outputs on every path
          for (int j = 0; j < n; ++j) mask[static_cast<std::size_t>(j)] = 1;
        if (flavor == 3) {  // int32-overflow spread: AVX2 bails to scalar
          d[0] = std::numeric_limits<std::int32_t>::max() - 7;
          d[static_cast<std::size_t>(n - 1)] =
              std::numeric_limits<std::int32_t>::min() + 7;
        }
        std::vector<std::int8_t> want(static_cast<std::size_t>(n));
        {
          KindGuard g(kernels::Kind::kScalar);
          unit.row(d.data(), mask.data(), n, want.data());
        }
        std::vector<std::int8_t> got(static_cast<std::size_t>(n));
        {
          KindGuard g(kernels::Kind::kSimd);
          unit.row(d.data(), mask.data(), n, got.data());
        }
        EXPECT_EQ(got, want) << "softmax row, d_scale=" << d_scale
                             << " n=" << n << " flavor=" << flavor;
      }
    }
  }
}

// --- Packed layout ----------------------------------------------------------

TEST(PackB, RoundTripsAndPadsWithZeros) {
  Rng rng(7);
  for (const Shape& s : kShapes) {
    const MatI8 b8 = rand_i8(s.k, s.n, rng);
    const PackedI8 p8 = pack_b_i8(b8);
    EXPECT_EQ(p8.k, s.k);
    EXPECT_EQ(p8.n, s.n);
    EXPECT_EQ(p8.k_pad % PackedI8::kGroupK, 0);
    EXPECT_EQ(p8.n_pad % PackedI8::kPanelCols, 0);
    EXPECT_GE(p8.k_pad, s.k);
    EXPECT_LT(p8.k_pad - s.k, PackedI8::kGroupK);
    EXPECT_GE(p8.n_pad, s.n);
    EXPECT_LT(p8.n_pad - s.n, PackedI8::kPanelCols);
    ASSERT_EQ(p8.data.size(), static_cast<std::size_t>(p8.n_pad) * p8.k_pad);
    EXPECT_EQ(unpack_b_i8(p8), b8);
    // Every byte past k or past n is zero padding.
    for (int j = 0; j < p8.n_pad; ++j)
      for (int x = 0; x < p8.k_pad; ++x) {
        if (j < p8.n && x < p8.k) continue;
        const std::int8_t* panel = p8.panel(j / PackedI8::kPanelCols);
        ASSERT_EQ(panel[x / PackedI8::kGroupK * PackedI8::kLineBytes +
                        j % PackedI8::kPanelCols * PackedI8::kGroupK +
                        x % PackedI8::kGroupK],
                  0)
            << "pad column " << j << " k " << x;
      }
    // sum128[j] = 128·Σ_p B(p, j), zero in the padding columns.
    ASSERT_EQ(p8.sum128.size(), static_cast<std::size_t>(p8.n_pad));
    for (int j = 0; j < p8.n_pad; ++j) {
      std::int32_t sum = 0;
      for (int x = 0; j < p8.n && x < p8.k; ++x) sum += b8(x, j);
      EXPECT_EQ(p8.sum128[static_cast<std::size_t>(j)], 128 * sum)
          << "column " << j;
    }
  }
}

TEST(PackB, RowsAreCacheLineAligned) {
  // Every panel (and so every 64-byte line a kernel loads) starts on a
  // cache line, ragged k included; so does the Σb correction row.
  Rng rng(8);
  for (const int k : {100, 101, 3}) {
    const MatI8 b = rand_i8(k, 37, rng);
    const PackedI8 p = pack_b_i8(b);
    for (int panel = 0; panel < p.n_pad / PackedI8::kPanelCols; ++panel)
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p.panel(panel)) % 64, 0u)
          << "k " << k << " panel " << panel;
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p.sum128.data()) % 64, 0u);
  }
}

// --- Packed GEMM tiers ------------------------------------------------------
// Every tier this host has must equal the scalar reference bit for bit; a
// tier the host lacks skips under its own name.

class PackedGemmTier
    : public ::testing::TestWithParam<kernels::detail::GemmTier> {
 protected:
  void SetUp() override {
    if (!kernels::detail::tier_supported(GetParam()))
      GTEST_SKIP() << "host lacks the "
                   << kernels::detail::tier_name(GetParam()) << " tier";
  }

  /// Runs the tier and the scalar loop on (a, b) with and without `bias`.
  void expect_tier_matches(const MatI8& a, const MatI8& b,
                           const std::vector<std::int32_t>& bias,
                           const Shape& s) {
    using kernels::detail::GemmTier;
    const PackedI8 bp = pack_b_i8(b);
    const std::int32_t* no_bias = nullptr;
    for (const std::int32_t* bptr : {bias.data(), no_bias}) {
      MatI32 want(s.m, s.n), got(s.m, s.n);
      ASSERT_TRUE(kernels::detail::gemm_i8_packed_tier_into(
          GemmTier::kScalar, a, bp, bptr, want));
      ASSERT_TRUE(kernels::detail::gemm_i8_packed_tier_into(GetParam(), a, bp,
                                                            bptr, got));
      for (int r = 0; r < s.m; ++r)
        for (int c = 0; c < s.n; ++c)
          ASSERT_EQ(got(r, c), want(r, c))
              << kernels::detail::tier_name(GetParam()) << " (" << s.m << 'x'
              << s.k << 'x' << s.n << (bptr != nullptr ? ", bias" : "")
              << ") at (" << r << ',' << c << ')';
    }
    // The scalar loop itself is gemm_i8 + add_bias_i32 on the dense B.
    MatI32 dense(s.m, s.n), with_bias(s.m, s.n);
    {
      KindGuard g(kernels::Kind::kScalar);
      kernels::gemm_i8_into(a, b, dense);
    }
    ASSERT_TRUE(kernels::detail::gemm_i8_packed_tier_into(
        kernels::detail::GemmTier::kScalar, a, bp, bias.data(), with_bias));
    expect_same(with_bias, add_bias_i32(dense, bias), "packed scalar", s);
  }
};

TEST_P(PackedGemmTier, MatchesScalarOnShapeGrid) {
  Rng rng(99);
  const Shape extra[] = {{5, 512, 64}, {6, 20, 50}, {3, 9, 130}};
  std::vector<Shape> shapes(std::begin(kShapes), std::end(kShapes));
  shapes.insert(shapes.end(), std::begin(extra), std::end(extra));
  for (const Shape& s : shapes) {
    const MatI8 a = rand_i8(s.m, s.k, rng);
    const MatI8 b = rand_i8(s.k, s.n, rng);
    std::vector<std::int32_t> bias(static_cast<std::size_t>(s.n));
    for (auto& v : bias) v = rng.uniform_int(-100000, 100000);
    expect_tier_matches(a, b, bias, s);
  }
}

TEST_P(PackedGemmTier, ExtremeOperandsPinTheSumCorrection) {
  // All −128, all +127 and mixed signs at a full (2048) and a ragged (2051)
  // k: the largest |Σ(a+128)·b| and |128·Σb| the VNNI tiers see there.
  Rng rng(100);
  for (const int k : {2048, 2051}) {
    const Shape s{5, k, 35};
    for (const auto& [av, bv] : {std::pair{-128, -128}, std::pair{127, 127},
                                 std::pair{-128, 127}, std::pair{127, -128},
                                 std::pair{0, 0}}) {
      MatI8 a(s.m, s.k), b(s.k, s.n);
      for (int r = 0; r < s.m; ++r)
        for (int p = 0; p < s.k; ++p)
          a(r, p) = static_cast<std::int8_t>(av == 0 ? (p % 2 ? -128 : 127)
                                                     : av);
      for (int p = 0; p < s.k; ++p)
        for (int c = 0; c < s.n; ++c)
          b(p, c) = static_cast<std::int8_t>(bv == 0 ? (c % 2 ? 127 : -128)
                                                     : bv);
      std::vector<std::int32_t> bias(static_cast<std::size_t>(s.n));
      for (auto& v : bias) v = rng.uniform_int(-100000, 100000);
      expect_tier_matches(a, b, bias, s);
    }
  }
}

TEST_P(PackedGemmTier, WrappedSumsAreExactWhenTheResultFits) {
  // a = b = 127 at k = 70,000: Σ(a+128)·b = 255·127·k passes 2³¹ and wraps
  // in the VNNI accumulator, while Σa·b = 127²·k and 128·Σb still fit.
  const Shape s{2, 70000, 17};
  MatI8 a(s.m, s.k), b(s.k, s.n);
  for (int p = 0; p < s.k; ++p) {
    a(0, p) = 127;
    a(1, p) = static_cast<std::int8_t>(p % 2 ? 127 : -128);
    for (int c = 0; c < s.n; ++c) b(p, c) = 127;
  }
  expect_tier_matches(a, b, std::vector<std::int32_t>(s.n, -5), s);
}

INSTANTIATE_TEST_SUITE_P(
    AllTiers, PackedGemmTier,
    ::testing::Values(kernels::detail::GemmTier::kAvx512Vnni,
                      kernels::detail::GemmTier::kAvx2,
                      kernels::detail::GemmTier::kScalar),
    [](const auto& info) {
      return std::string(kernels::detail::tier_name(info.param));
    });

// --- Dispatch knob ----------------------------------------------------------

TEST(KernelDispatch, ParsesKnownKindsOnly) {
  kernels::Kind k{};
  EXPECT_TRUE(kernels::parse_kind("scalar", &k));
  EXPECT_EQ(k, kernels::Kind::kScalar);
  EXPECT_TRUE(kernels::parse_kind("simd", &k));
  EXPECT_EQ(k, kernels::Kind::kSimd);
  EXPECT_FALSE(kernels::parse_kind("blocked", &k));  // deleted kind
  EXPECT_FALSE(kernels::parse_kind("avx512", &k));
  EXPECT_FALSE(kernels::parse_kind("", &k));
}

TEST(KernelDispatch, SetKindOverridesSelection) {
  KindGuard g(kernels::Kind::kScalar);
  EXPECT_EQ(kernels::selected(), kernels::Kind::kScalar);
  kernels::set_kind(kernels::Kind::kSimd);
  EXPECT_EQ(kernels::selected(), kernels::Kind::kSimd);
}

TEST(KernelDispatch, RefreshFromEnvReadsTheKnob) {
  const kernels::Kind saved = kernels::selected();
  ASSERT_EQ(setenv("TFACC_KERNEL", "scalar", 1), 0);
  EXPECT_EQ(kernels::refresh_from_env(), kernels::Kind::kScalar);
  EXPECT_EQ(kernels::selected(), kernels::Kind::kScalar);
  for (const char* bad : {"blocked", "warp-drive"}) {
    ASSERT_EQ(setenv("TFACC_KERNEL", bad, 1), 0);
    EXPECT_THROW(kernels::refresh_from_env(), CheckError) << bad;
  }
  ASSERT_EQ(unsetenv("TFACC_KERNEL"), 0);
  EXPECT_EQ(kernels::refresh_from_env(), kernels::Kind::kSimd);  // default
  kernels::set_kind(saved);
}

TEST(KernelDispatch, GemmTierIsTheFastestSupportedTier) {
  using kernels::detail::GemmTier;
  const std::string tier = kernels::gemm_tier();
  for (const GemmTier t :
       {GemmTier::kAvx512Vnni, GemmTier::kAvx2, GemmTier::kScalar}) {
    if (kernels::detail::tier_supported(t)) {
      EXPECT_EQ(tier, kernels::detail::tier_name(t));
      break;
    }
  }
  EXPECT_TRUE(kernels::detail::tier_supported(GemmTier::kScalar));
}

TEST(KernelDispatch, CapabilityNamesAreStable) {
  const std::string cap = kernels::capability();
  EXPECT_TRUE(cap == "avx2" || cap == "sse2" || cap == "neon" ||
              cap == "generic");
  EXPECT_EQ(kernels::simd_available(), cap != "generic");
}

// --- Zero allocations per warm packed step ----------------------------------

ModelConfig hw_config() {
  ModelConfig cfg;
  cfg.name = "kernels-hw";
  cfg.d_model = 64;
  cfg.d_ff = 256;
  cfg.num_heads = 1;
  cfg.head_dim = 64;
  cfg.num_encoder_layers = 1;
  cfg.num_decoder_layers = 2;
  return cfg;
}

constexpr int kSlots = 4;
// The pool and every scratch buffer are warm after the KV-cache capacity
// doublings at steps 1,2,3,5,9; the next is at step 17, and per-slot score
// rows stay within the smallest pool class through step 16. So measure
// steps 11..16: a correct hot path does zero heap allocations there.
constexpr int kWarmSteps = 10;
constexpr int kMeasuredSteps = 6;

/// Drives kWarmSteps + kMeasuredSteps packed steps over kSlots ragged
/// hypotheses and returns the operator-new count of the measured steps.
/// `bracket` wraps each decode_step_batch call (the fuser hooks for the
/// accelerator backend); the counter only covers the step call itself.
template <typename Fn>
long measure_step_allocs(Transformer& model, const Fn& bracket) {
  const std::vector<TokenSeq> srcs = {{3, 4, 5}, {6, 7}, {8, 9, 10, 3}, {4}};
  std::vector<MatF> memories;
  std::vector<DecodeState> states_store;
  for (const TokenSeq& src : srcs) {
    memories.push_back(model.encode(src));
    states_store.push_back(
        model.begin_decode(memories.back(), static_cast<int>(src.size())));
  }
  std::vector<DecodeState*> states;
  for (auto& s : states_store) states.push_back(&s);
  std::vector<int> tokens(kSlots, kBosId);

  MatF logits;
  long measured = 0;
  for (int step = 0; step < kWarmSteps + kMeasuredSteps; ++step) {
    // Count only the step call itself: the fuser begin/end bracketing around
    // it schedules the simulated-time ledger and may allocate freely.
    bracket([&] {
      const long before = g_heap_allocs.load(std::memory_order_relaxed);
      model.decode_step_batch(states, tokens, logits);
      const long after = g_heap_allocs.load(std::memory_order_relaxed);
      if (step >= kWarmSteps) measured += after - before;
    });
    for (int i = 0; i < kSlots; ++i) {
      // Cycle deterministic non-EOS tokens so every slot stays live.
      tokens[static_cast<std::size_t>(i)] = 3 + (step + i) % 4;
    }
  }
  return measured;
}

class ZeroAllocStep : public ::testing::TestWithParam<kernels::Kind> {};

TEST_P(ZeroAllocStep, ReferenceBackend) {
  KindGuard g(GetParam());
  Rng rng(91);
  Transformer model(TransformerWeights::random(hw_config(), 20, rng));
  const long allocs =
      measure_step_allocs(model, [](const auto& fn) { fn(); });
  EXPECT_EQ(allocs, 0) << "heap allocations in " << kMeasuredSteps
                       << " warm packed steps (reference backend)";
}

TEST_P(ZeroAllocStep, QuantizedBackend) {
  KindGuard g(GetParam());
  Rng rng(92);
  Transformer model(TransformerWeights::random(hw_config(), 20, rng));
  const auto qt = QuantizedTransformer::build(model, {{3, 4, 5}, {6, 7}}, 12,
                                              SoftmaxImpl::kHardware);
  model.set_backend(qt.backend());
  const long allocs =
      measure_step_allocs(model, [](const auto& fn) { fn(); });
  model.set_backend(ResBlockBackend{});
  EXPECT_EQ(allocs, 0) << "heap allocations in " << kMeasuredSteps
                       << " warm packed steps (quantized backend)";
}

TEST_P(ZeroAllocStep, AcceleratorBackendFusedStep) {
  KindGuard g(GetParam());
  Rng rng(93);
  Transformer model(TransformerWeights::random(hw_config(), 20, rng));
  const auto qt = QuantizedTransformer::build(model, {{3, 4, 5}, {6, 7}}, 12,
                                              SoftmaxImpl::kHardware);
  Accelerator acc;
  AcceleratorStats stats;
  DecodeStepFuser fuser(acc, &stats);
  model.set_backend(accelerator_backend(qt, acc, &stats, &fuser));
  // The serve loop brackets each step with begin/end_step; the allocation
  // window covers only the decode_step_batch call (end_step schedules the
  // fused ledger and may allocate — that is simulator bookkeeping, not the
  // measured datapath).
  const long allocs = measure_step_allocs(model, [&](const auto& fn) {
    fuser.begin_step();
    fn();
    (void)fuser.end_step();
  });
  model.set_backend(ResBlockBackend{});
  EXPECT_EQ(allocs, 0) << "heap allocations in " << kMeasuredSteps
                       << " warm packed steps (accelerator backend)";
  EXPECT_GT(stats.fused_steps, 0);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ZeroAllocStep,
                         ::testing::Values(kernels::Kind::kScalar,
                                           kernels::Kind::kSimd),
                         [](const auto& info) {
                           return std::string(kernels::kind_name(info.param));
                         });

}  // namespace
}  // namespace tfacc

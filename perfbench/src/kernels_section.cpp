// Kernel and hwarith rates on shapes taken from the workloads: the packed
// INT8 GEMM at decode shapes (16 packed rows, d_model 256) and at the
// paper's ResBlock shapes, the FP32 GEMM that calibration runs, and the
// softmax and LayerNorm row units at the paper's widths. Bytes moved per
// call are computed from the tensor shapes, not measured.
#include <cstdio>
#include <vector>

#include "bench.hpp"
#include "hwarith/layernorm_unit.hpp"
#include "hwarith/softmax_unit.hpp"
#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"

namespace perfbench {
namespace {

using namespace tfacc;

struct Shape {
  int m, k, n;
  double macs() const { return static_cast<double>(m) * k * n; }
};

// Median seconds per call over five batches of about 20 ms each.
template <typename Fn>
double per_call_s(Fn&& fn) {
  fn();
  long calls = 1;
  for (;;) {
    const double t0 = now_s();
    for (long i = 0; i < calls; ++i) fn();
    if (now_s() - t0 > 0.02) break;
    calls *= 2;
  }
  std::vector<double> batches;
  for (int b = 0; b < 5; ++b) {
    const double t0 = now_s();
    for (long i = 0; i < calls; ++i) fn();
    batches.push_back((now_s() - t0) / static_cast<double>(calls));
  }
  return median(batches);
}

void print_shape(const char* kernel, const Shape& s, double sec,
                 double bytes) {
  std::printf(
      "kernel %s %dx%dx%d gmacs=%.4g us_per_call=%.4g "
      "bytes_per_call=%.0f (computed from shapes)\n",
      kernel, s.m, s.k, s.n, s.macs() / sec / 1e9, sec * 1e6, bytes);
}

// GMAC/s of the packed INT8 GEMM over `shapes` together.
double gemm_i8_packed_gmacs(const std::vector<Shape>& shapes, Rng& rng) {
  double macs = 0, sec = 0;
  for (const Shape& s : shapes) {
    MatI8 a(s.m, s.k), b(s.k, s.n);
    fill_uniform_i8(a, rng);
    fill_uniform_i8(b, rng);
    const PackedI8 bp = pack_b_i8(b);
    MatI32 out(s.m, s.n);
    const double t =
        per_call_s([&] { kernels::gemm_i8_packed_into(a, bp, out); });
    print_shape("tensor.gemm_i8_packed", s, t,
                static_cast<double>(s.m) * s.k +
                    static_cast<double>(s.k) * s.n + 4.0 * s.m * s.n);
    macs += s.macs();
    sec += t;
  }
  return macs / sec / 1e9;
}

double gemm_f32_gmacs(const std::vector<Shape>& shapes, Rng& rng) {
  double macs = 0, sec = 0;
  for (const Shape& s : shapes) {
    MatF a(s.m, s.k), b(s.k, s.n), out(s.m, s.n);
    fill_normal(a, rng, 0, 1);
    fill_normal(b, rng, 0, 1);
    const double t = per_call_s([&] { kernels::gemm_f32_into(a, b, out); });
    print_shape("tensor.gemm_f32", s, t,
                4.0 * (static_cast<double>(s.m) * s.k +
                       static_cast<double>(s.k) * s.n +
                       static_cast<double>(s.m) * s.n));
    macs += s.macs();
    sec += t;
  }
  return macs / sec / 1e9;
}

}  // namespace

void run_kernels(Report& rep) {
  Rng rng(0x6b65726e);
  rep.set("tensor.gemm_i8_packed.decode_gmacs",
          gemm_i8_packed_gmacs({{16, 256, 256}, {16, 256, 1024}}, rng));
  rep.set("tensor.gemm_i8_packed.resblock_gmacs",
          gemm_i8_packed_gmacs({{64, 512, 512}, {64, 512, 2048},
                                {64, 2048, 512}},
                               rng));
  rep.set("tensor.gemm_f32.calib_gmacs",
          gemm_f32_gmacs({{16, 256, 256}, {16, 256, 1024}}, rng));

  // Softmax over 64-wide INT32 score rows (s = 64 attention).
  constexpr int kRows = 64, kSoftmaxN = 64, kNormN = 512;
  MatI32 scores(kRows, kSoftmaxN);
  for (int r = 0; r < kRows; ++r)
    for (int c = 0; c < kSoftmaxN; ++c)
      scores(r, c) = rng.uniform_int(-20000, 20000);
  const std::vector<std::uint8_t> mask(kSoftmaxN, 0);
  MatI8 probs(kRows, kSoftmaxN);
  const hw::SoftmaxUnit softmax(1e-3);
  const double t_sm = per_call_s([&] {
    for (int r = 0; r < kRows; ++r)
      softmax.row(scores.row(r), mask.data(), kSoftmaxN, probs.row(r));
  });
  std::printf("kernel hwarith.softmax row n=%d us_per_row=%.4g "
              "bytes_per_row=%d (computed from shapes)\n",
              kSoftmaxN, t_sm / kRows * 1e6, kSoftmaxN * (4 + 1 + 1));
  rep.set("hwarith.softmax_rows_per_s", kRows / t_sm);

  // LayerNorm over d_model 512 INT16 rows (the paper's ResBlock output).
  const hw::LayerNormUnit norm =
      hw::LayerNormUnit::build(LayerNormParams::random(kNormN, rng), 0.05f);
  MatI16 g(kRows, kNormN);
  for (int r = 0; r < kRows; ++r)
    for (int c = 0; c < kNormN; ++c)
      g(r, c) = static_cast<std::int16_t>(rng.uniform_int(-2000, 2000));
  MatI8 normed(kRows, kNormN);
  const double t_ln = per_call_s([&] {
    for (int r = 0; r < kRows; ++r) norm.row(g.row(r), normed.row(r));
  });
  std::printf("kernel hwarith.layernorm row n=%d us_per_row=%.4g "
              "bytes_per_row=%d (computed from shapes)\n",
              kNormN, t_ln / kRows * 1e6, kNormN * (2 + 1));
  rep.set("hwarith.layernorm_rows_per_s", kRows / t_ln);
}

}  // namespace perfbench

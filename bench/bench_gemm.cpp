// Kernel sweep: ns/GEMM and GMAC/s of both kernel kinds (scalar loop, SIMD)
// at the GEMM shapes the serve step loop actually issues, plus the packed-B
// fused-bias form the INT8 datapath runs. Every timed result is first
// checked bit-identical to the scalar reference — a kernel that drifts never
// publishes a number.
//
// The headline gate is gemm_ns_scalar_over_simd: scalar ns / SIMD ns at the
// packed-i8 decode-projection shape. A host-speed-free ratio, gated by
// perf_gate.py against bench/baselines/gemm.json (and skipped there when the
// host's kernel capability differs from the baseline's).
//
//   $ ./build/bench_gemm [--smoke]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "json.hpp"
#include "table.hpp"
#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"
#include "tensor/pack.hpp"

namespace {

using namespace tfacc;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct Shape {
  const char* label;  // what the serve loop uses this shape for
  int m, k, n;
};

// The measured path's GEMMs: packed decode projections (16 slot rows into
// d_model/d_ff sized weights) and the host-side output projection.
constexpr Shape kShapes[] = {
    {"decode proj 16x64x64", 16, 64, 64},
    {"decode proj 16x256x256", 16, 256, 256},
    {"ffn up 16x256x1024", 16, 256, 1024},
    {"ffn down 16x1024x256", 16, 1024, 256},
    {"logits 16x256x1000", 16, 256, 1000},
};

/// Repeats `fn` until ~`budget_s` of wall time, three times, and returns the
/// fastest pass's mean ns per call. Minimum-of-means: preemption by another
/// process only ever *slows* a pass, so the fastest pass is the cleanest
/// estimate — this keeps the CI smoke gate from flapping on a shared runner.
template <typename Fn>
double time_ns(const Fn& fn, double budget_s) {
  fn();  // warm: pool classes, pack, icache
  double best = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    long iters = 0;
    const auto t0 = std::chrono::steady_clock::now();
    double elapsed = 0.0;
    do {
      fn();
      ++iters;
      elapsed = seconds_since(t0);
    } while (elapsed < budget_s);
    const double ns = 1e9 * elapsed / static_cast<double>(iters);
    if (pass == 0 || ns < best) best = ns;
  }
  return best;
}

bool check_i32(const MatI32& got, const MatI32& want, const char* what) {
  if (got == want) return true;
  std::printf("FATAL: %s diverged from the scalar reference\n", what);
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tfacc;
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  // Smoke mode (CI): enough iterations to prove the sweep runs and the
  // kernels agree; the published timings come from full runs.
  const double budget_s = smoke ? 0.002 : 0.05;

  const kernels::Kind kinds[] = {kernels::Kind::kScalar,
                                 kernels::Kind::kSimd};

  std::ofstream json_file("BENCH_gemm.json");
  bench::JsonWriter json(json_file);
  json.begin_object();
  json.key("bench").value("gemm_kernel_sweep");
  json.key("smoke").value(smoke);
  bench::write_host_info(json);

  bench::title(std::string("GEMM kernel sweep (int8 -> int32, ") +
               kernels::capability() + " host, gemm_tier " +
               kernels::gemm_tier() + (smoke ? ", smoke" : "") + ")");
  std::printf("%-24s | %10s | %12s %10s | %8s\n", "shape (m x k x n)",
              "kernel", "ns/GEMM", "GMAC/s", "vs scal");
  bench::rule(78);

  Rng rng(42);
  bool identical = true;
  double headline_scalar_ns = 0.0, headline_simd_ns = 0.0;
  json.key("sweep").begin_array();
  for (const Shape& s : kShapes) {
    MatI8 a(s.m, s.k), b(s.k, s.n);
    fill_uniform_i8(a, rng);
    fill_uniform_i8(b, rng);
    std::vector<std::int32_t> bias(static_cast<std::size_t>(s.n));
    for (auto& v : bias) v = rng.uniform_int(-100000, 100000);
    const PackedI8 bp = pack_b_i8(b);

    MatI32 want(s.m, s.n), want_bias(s.m, s.n);
    {
      // Scalar reference results for the bit-identity check.
      kernels::set_kind(kernels::Kind::kScalar);
      kernels::gemm_i8_into(a, b, want);
      kernels::gemm_i8_packed_bias_into(a, bp, bias, want_bias);
    }

    const double macs = static_cast<double>(s.m) * s.k * s.n;
    double scalar_ns = 0.0;
    for (const kernels::Kind kind : kinds) {
      kernels::set_kind(kind);
      MatI32 out(s.m, s.n), out_bias(s.m, s.n);
      kernels::gemm_i8_into(a, b, out);
      kernels::gemm_i8_packed_bias_into(a, bp, bias, out_bias);
      identical = check_i32(out, want, "gemm_i8") &&
                  check_i32(out_bias, want_bias, "gemm_i8_packed_bias") &&
                  identical;

      const double dense_ns =
          time_ns([&] { kernels::gemm_i8_into(a, b, out); }, budget_s);
      const double packed_ns = time_ns(
          [&] { kernels::gemm_i8_packed_bias_into(a, bp, bias, out_bias); },
          budget_s);
      if (kind == kernels::Kind::kScalar) scalar_ns = packed_ns;
      // The headline ratio is the packed fused-bias kernel at the d_model
      // 256 decode-projection shape — the one QuantizedLinear::accumulate
      // issues every sublayer of every packed step.
      if (std::strcmp(s.label, "decode proj 16x256x256") == 0) {
        if (kind == kernels::Kind::kScalar) headline_scalar_ns = packed_ns;
        if (kind == kernels::Kind::kSimd) headline_simd_ns = packed_ns;
      }
      std::printf("%-24s | %10s | %12.0f %10.2f | %7.2fx\n", s.label,
                  kernels::kind_name(kind), packed_ns,
                  macs / packed_ns,  // MAC/ns == GMAC/s
                  scalar_ns > 0 ? scalar_ns / packed_ns : 1.0);

      json.begin_object();
      json.key("shape").value(s.label);
      json.key("m").value(s.m);
      json.key("k").value(s.k);
      json.key("n").value(s.n);
      json.key("kernel").value(kernels::kind_name(kind));
      json.key("dense_ns_per_gemm").value(dense_ns);
      json.key("packed_bias_ns_per_gemm").value(packed_ns);
      json.key("packed_gmac_per_s").value(macs / packed_ns);
      json.key("speedup_vs_scalar")
          .value(scalar_ns > 0 ? scalar_ns / packed_ns : 1.0);
      json.end_object();
    }
  }
  json.end_array();
  kernels::refresh_from_env();  // restore the environment's selection

  const double ratio =
      headline_simd_ns > 0 ? headline_scalar_ns / headline_simd_ns : 0.0;
  json.key("gates").begin_object();
  json.key("outputs_bit_identical").value(identical);
  // Dimensionless and host-speed free: gated by perf_gate.py (skipped on a
  // host whose kernel capability differs from the baseline's).
  json.key("gemm_ns_scalar_over_simd").value(ratio);
  json.end_object();
  json.end_object();
  json_file << '\n';

  std::printf(
      "\nheadline (packed i8+bias, 16x256x256): scalar/simd = %.2fx, outputs "
      "%s\nresults written to BENCH_gemm.json\n",
      ratio, identical ? "bit-identical" : "DIVERGED");
  return identical ? 0 : 1;
}

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <span>
#include <thread>

#include "bench.hpp"
#include "tensor/kernels.hpp"

namespace perfbench {
namespace {

struct Declared {
  const char* name;
  const char* unit;
};

// The metrics BENCHMARK.json declares, in its order. --trace 0 prints the
// end-to-end list, --trace 1 the per-layer list. metric_moves.json records
// which end-to-end metric each per-layer metric should move.
constexpr Declared kEndToEnd[] = {
    {"setup_s", "s"},
    {"host_tokens_per_s", "tokens/s"},
    {"host_resblocks_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

constexpr Declared kPerLayer[] = {
    {"serve.packed_rows_mean", "rows"},
    {"serve.packed_steps", "count"},
    {"serve.card_rows_imbalance", "ratio"},
    {"serve.prefill_chunks", "count"},
    {"serve.serial_wall_s", "s"},
    {"serve.parallel_efficiency", "frac"},
    {"reference.model_build_s", "s"},
    {"quant.calibrate_s", "s"},
    {"quant.block_build_s", "s"},
    {"reference.encode_s", "s"},
    {"reference.decode_step_s", "s"},
    {"reference.decode_step_self_s", "s"},
    {"reference.search_s", "s"},
    {"core.enc_mha_s", "s"},
    {"core.enc_mha.calls", "count"},
    {"core.enc_mha.rows", "rows"},
    {"core.dec_self_mha_s", "s"},
    {"core.dec_self_mha.calls", "count"},
    {"core.dec_self_mha.rows", "rows"},
    {"core.dec_cross_mha_s", "s"},
    {"core.dec_cross_mha.calls", "count"},
    {"core.dec_cross_mha.rows", "rows"},
    {"core.ffn_s", "s"},
    {"core.ffn.calls", "count"},
    {"core.ffn.rows", "rows"},
    {"core.cache_init_s", "s"},
    {"core.step_ledger_s", "s"},
    {"trace.overhead_frac", "frac"},
    {"modeled_tokens_per_s", "tokens/s"},
    {"core.sa_utilization", "frac"},
    {"core.softmax_stall_cycles", "cycles"},
    {"core.boundary_stall_cycles", "cycles"},
    {"core.prefill_stall_cycles", "cycles"},
    {"core.layernorm_busy_cycles", "cycles"},
    {"core.fused_steps", "count"},
    {"core.forward_mha_s", "s"},
    {"core.forward_ffn_s", "s"},
    {"core.time_mha_s", "s"},
    {"core.time_ffn_s", "s"},
    {"core.resblock_sa_utilization", "frac"},
    {"modeled_mha_cycles", "cycles"},
    {"modeled_ffn_cycles", "cycles"},
    {"tensor.gemm_i8_packed.decode_gmacs", "GMAC/s"},
    {"tensor.gemm_i8_packed.resblock_gmacs", "GMAC/s"},
    {"tensor.gemm_f32.calib_gmacs", "GMAC/s"},
    {"hwarith.softmax_rows_per_s", "rows/s"},
    {"hwarith.layernorm_rows_per_s", "rows/s"},
};

const Declared* find_declared(const std::string& name) {
  for (const Declared& d : kEndToEnd)
    if (name == d.name) return &d;
  for (const Declared& d : kPerLayer)
    if (name == d.name) return &d;
  return nullptr;
}

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double fastest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double highest_percentile(std::size_t samples) {
  const double n = static_cast<double>(samples);
  for (const double p : {99.0, 95.0, 90.0})
    if (n * (1.0 - p / 100.0) >= 10.0) return p;
  return 50.0;
}

void Digest::add(std::int64_t v) {
  const auto u = static_cast<std::uint64_t>(v);
  for (int b = 0; b < 8; ++b) {
    h_ ^= (u >> (8 * b)) & 0xffu;
    h_ *= 1099511628211ULL;
  }
}

std::string Digest::hex() const {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
  return buf;
}

void Report::set(const std::string& name, double value) {
  const Declared* d = find_declared(name);
  if (d == nullptr) {
    check(false, "undeclared metric " + name);
    return;
  }
  values_[name] = value;
  std::printf("metric %s %.10g %s\n", name.c_str(), value, d->unit);
}

void Report::info(const std::string& name, double value,
                  const std::string& unit, const std::string& note) {
  std::printf("metric %s %.10g %s%s%s\n", name.c_str(), value, unit.c_str(),
              note.empty() ? "" : "  # ", note.c_str());
}

void Report::timing(const std::string& name,
                    const std::vector<double>& samples,
                    const std::string& unit) {
  std::vector<double> v = samples;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  auto at = [&](double q) {
    return n ? v[static_cast<std::size_t>(q * static_cast<double>(n - 1))]
             : 0.0;
  };
  const double p = highest_percentile(n);
  std::printf(
      "samples %s n=%zu median %.6g %s q1 %.6g q3 %.6g min %.6g max %.6g "
      "p%g %.6g\n",
      name.c_str(), n, median(v), unit.c_str(), at(0.25), at(0.75), at(0.0),
      at(1.0), p, p == 50.0 ? median(v) : at(p / 100.0));
}

void Report::check(bool ok, const std::string& what, long failed_items) {
  std::printf("check %s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (ok) return;
  correct_ = false;
  failed_ += std::max(1L, failed_items);
}

int Report::finish() {
  const std::span<const Declared> declared =
      opt_.trace ? std::span<const Declared>(kPerLayer)
                 : std::span<const Declared>(kEndToEnd);
  // End-to-end metrics must all be measured; a per-layer metric a workload
  // does not exercise reads 0.
  for (const Declared& d : declared)
    if (!opt_.trace && !values_.count(d.name))
      check(false, std::string("end-to-end metric measured: ") + d.name);
  for (const auto& [name, v] : values_)
    if (!std::isfinite(v)) check(false, "finite value: " + name);
  if (attempted_ < 1) attempted_ = 1;
  failed_ = std::min(failed_, attempted_);
  info("failed_frac", static_cast<double>(failed_) / attempted_, "frac",
       std::to_string(failed_) + " of " + std::to_string(attempted_));

  std::string json = "{\"correct\": ";
  json += correct_ ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Declared& d : declared) {
    const auto it = values_.find(d.name);
    double v = it == values_.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) v = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    json += first ? "" : ", ";
    json += "\"" + std::string(d.name) + "\": {\"value\": " + buf +
            ", \"unit\": \"" + d.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct_ ? 0 : 1;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void print_host() {
  namespace k = tfacc::kernels;
  std::printf(
      "host cores=%u capability=%s kernel=%s compiler=\"%s\" build=\"%s\"\n",
      std::thread::hardware_concurrency(), k::capability(),
      k::kind_name(k::selected()), __VERSION__, PERFBENCH_BUILD_TYPE);
}

}  // namespace perfbench

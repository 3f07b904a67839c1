// Minimal JSON emitter for machine-readable bench outputs (BENCH_*.json):
// the perf trajectory of the serving stack is tracked across PRs by diffing
// these files, so benches write them next to their human-readable tables.
// Comma placement is handled; values are numbers, strings, bools and nested
// arrays/objects opened and closed explicitly.
#pragma once

#include <cmath>
#include <cstdint>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "tensor/kernels.hpp"

namespace tfacc::bench {

class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) { os_.precision(12); }

  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }

  /// Key inside an object; follow with exactly one value or begin_*.
  JsonWriter& key(const std::string& k) {
    separate();
    escape(k);
    os_ << ':';
    pending_key_ = true;
    return *this;
  }

  JsonWriter& value(double v) {
    separate();
    if (std::isfinite(v))
      os_ << v;
    else
      os_ << "null";
    return *this;
  }
  JsonWriter& value(long long v) {
    separate();
    os_ << v;
    return *this;
  }
  JsonWriter& value(long v) { return value(static_cast<long long>(v)); }
  JsonWriter& value(int v) { return value(static_cast<long long>(v)); }
  JsonWriter& value(bool v) {
    separate();
    os_ << (v ? "true" : "false");
    return *this;
  }
  JsonWriter& value(const std::string& v) {
    separate();
    escape(v);
    return *this;
  }
  JsonWriter& value(const char* v) { return value(std::string(v)); }

  template <typename T>
  JsonWriter& value_array(const std::vector<T>& values) {
    begin_array();
    for (const T& v : values) value(v);
    return end_array();
  }

 private:
  JsonWriter& open(char c) {
    separate();
    os_ << c;
    first_.push_back(true);
    return *this;
  }
  JsonWriter& close(char c) {
    first_.pop_back();
    os_ << c;
    return *this;
  }
  /// Emit a comma before any element that is not the first of its container
  /// and is not the value completing a key.
  void separate() {
    if (pending_key_) {
      pending_key_ = false;
      return;
    }
    if (!first_.empty()) {
      if (!first_.back()) os_ << ',';
      first_.back() = false;
    }
  }
  void escape(const std::string& s) {
    os_ << '"';
    for (char c : s) {
      switch (c) {
        case '"': os_ << "\\\""; break;
        case '\\': os_ << "\\\\"; break;
        case '\n': os_ << "\\n"; break;
        case '\t': os_ << "\\t"; break;
        default: os_ << c;
      }
    }
    os_ << '"';
  }

  std::ostream& os_;
  std::vector<bool> first_;
  bool pending_key_ = false;
};

/// Host kernel-capability stanza (PR 8): which GEMM microkernel dispatch the
/// bench ran with and what the host CPU supports. perf_gate.py reads
/// "kernel_capability" to skip wall-clock gates when the current host cannot
/// reproduce the baseline's kernel class (e.g. a NEON box diffing an AVX2
/// baseline) — simulated-cycle metrics stay gated regardless. "cores" (PR 9)
/// is the host's hardware concurrency: perf_gate.py skips the multi-card
/// scaling gates when either side of the diff ran on fewer than 4 cores.
/// "gemm_tier" names the packed int8 GEMM tier `simd` runs on this host
/// (avx512vnni | avx2 | scalar); it is informational only, so a
/// VNNI host still matches an "avx2" baseline's capability.
inline void write_host_info(JsonWriter& json) {
  json.key("host").begin_object();
  json.key("kernel").value(kernels::kind_name(kernels::selected()));
  json.key("kernel_capability").value(kernels::capability());
  json.key("gemm_tier").value(kernels::gemm_tier());
  json.key("simd_available").value(kernels::simd_available());
  json.key("cores")
      .value(static_cast<int>(std::thread::hardware_concurrency()));
  json.end_object();
}

/// Per-module busy/idle breakdown of a farm report (PR 4 BENCH schema,
/// extended with the PR 5 boundary-stall and PR 6 prefill-stall
/// attributions):
///   "modules": {"sa"|"softmax"|"layernorm": {"busy_cycles", "idle_cycles"},
///               "softmax_stall_cycles": ..., "boundary_stall_cycles": ...,
///               "prefill_stall_cycles": ...}
/// where idle = total simulated ResBlock cycles − module busy,
/// softmax_stall_cycles counts SA cycles lost waiting on softmax results,
/// boundary_stall_cycles counts SA cycles lost at run/sublayer boundaries
/// (cold weight-tile loads + LayerNorm tails + fused seam gaps) — the idle
/// the fused decode-step ledger shrinks — and prefill_stall_cycles counts
/// cycles live decode rows waited on prefill (encoder) work sharing their
/// card — the cost chunked prefill packing spreads and shrinks.
inline void write_module_breakdown(JsonWriter& json, long long total_cycles,
                                   long long sa_busy, long long softmax_busy,
                                   long long layernorm_busy,
                                   long long softmax_stall,
                                   long long boundary_stall,
                                   long long prefill_stall) {
  const auto module = [&](const char* name, long long busy) {
    json.key(name).begin_object();
    json.key("busy_cycles").value(busy);
    json.key("idle_cycles").value(total_cycles - busy);
    json.end_object();
  };
  json.key("modules").begin_object();
  module("sa", sa_busy);
  module("softmax", softmax_busy);
  module("layernorm", layernorm_busy);
  json.key("softmax_stall_cycles").value(softmax_stall);
  json.key("boundary_stall_cycles").value(boundary_stall);
  json.key("prefill_stall_cycles").value(prefill_stall);
  json.end_object();
}

}  // namespace tfacc::bench

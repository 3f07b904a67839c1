// Shared pieces of the repo benchmark: command-line options, the metric
// report (human-readable lines plus the final JSON line), order statistics
// and the wall clock.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Shrinks every workload to a few requests (the self-test's size).
  bool tiny = false;
  /// Corrupts one output of the first timed repetition, so the self-test
  /// can prove that a mismatch trips the correctness gate.
  bool inject_mismatch = false;
};

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v);

/// The shortest of a run's repetition times. Every repetition repeats
/// identical, deterministic work, so interference from other load on the
/// host can only add time. On a 4-vCPU virtual machine sharing its host,
/// such interference slowed stretches of 10-60 s by up to half: a run's
/// median follows it, its fastest repetition much less. End-to-end rates
/// therefore use this; the median, quartiles and sample count are printed
/// beside it.
double fastest(const std::vector<double>& v);

/// The highest of the 90th, 95th and 99th percentiles with at least ten
/// samples beyond it, or 50 when the sample supports none of them.
double highest_percentile(std::size_t samples);

/// FNV-1a over a stream of integers: the request digest printed beside the
/// seed, so two runs can be shown to have received identical inputs.
class Digest {
 public:
  void add(std::int64_t v);
  std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

/// Collects metrics and check outcomes, prints them as `metric` lines while
/// the run goes, and ends with the one JSON line the benchmark contract
/// asks for. Metrics are declared in report.cpp: every workload emits every
/// declared metric of its mode, and a layer the workload does not exercise
/// reads 0.
class Report {
 public:
  explicit Report(const Options& opt) : opt_(opt) {}

  /// Set a declared metric (end-to-end or per-layer) and print it.
  void set(const std::string& name, double value);
  /// Print an informational value that is not a declared metric.
  void info(const std::string& name, double value, const std::string& unit,
            const std::string& note = "");
  /// Print a timing with its sample count and supported percentile.
  void timing(const std::string& name, const std::vector<double>& samples,
              const std::string& unit);

  /// Count `n` attempted requests (or ResBlock runs).
  void attempt(long n) { attempted_ += n; }
  /// Record a check. A failed check marks `failed_items` requests failed
  /// (at least one) and fails the run.
  void check(bool ok, const std::string& what, long failed_items = 1);

  /// Print failed_frac and the final JSON line; returns the exit code.
  int finish();

 private:
  const Options& opt_;
  std::map<std::string, double> values_;
  long attempted_ = 0;
  long failed_ = 0;
  bool correct_ = true;
};

/// High-water resident set of this process, in MiB.
double peak_rss_mb();

/// Prints the host stanza: core count, SIMD capability, selected kernel
/// kind (so TFACC_KERNEL overrides show), compiler and build type.
void print_host();

void run_serve(const Options& opt, Report& rep);
void run_resblock(const Options& opt, Report& rep);
/// Kernel and hwarith rates on shapes taken from the workloads.
void run_kernels(Report& rep);

}  // namespace perfbench

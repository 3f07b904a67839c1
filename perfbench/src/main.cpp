// The repo benchmark: one workload per invocation, inputs generated from
// --seed, end-to-end metrics with --trace 0 and per-layer metrics with
// --trace 1. The last line of stdout is the JSON result; the exit code is
// non-zero when any correctness check failed.
//
//   perfbench --workload serve-quant-4card --seed 1 --seconds 10 --trace 0
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload serve-quant-4card|"
               "serve-accel-1card|resblock-paper --seed N --seconds S "
               "--trace 0|1 [--tiny] [--inject-mismatch]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      opt.trace = std::string(argv[++i]) != "0";
    } else if (a == "--tiny") {
      opt.tiny = true;
    } else if (a == "--inject-mismatch") {
      opt.inject_mismatch = true;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  const bool serve = opt.workload == "serve-quant-4card" ||
                     opt.workload == "serve-accel-1card";
  if (!serve && opt.workload != "resblock-paper")
    return usage("unknown workload");
  if (!(opt.seconds > 0)) return usage("--seconds must be positive");

  std::printf("workload %s seed=%llu seconds=%g trace=%d%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, opt.tiny ? " tiny" : "");
  perfbench::print_host();
  perfbench::Report rep(opt);
  try {
    if (serve)
      perfbench::run_serve(opt, rep);
    else
      perfbench::run_resblock(opt, rep);
  } catch (const std::exception& e) {
    rep.check(false, std::string("workload ran without throwing: ") + e.what());
  }
  return rep.finish();
}

// resblock-paper: the paper's own design point. Accelerator::run_mha and
// run_ffn run back to back at s = 64, d_model 512, 8 heads, d_ff 2048, on
// quantized blocks built from seeded weights: full 64-row tiles in
// Algorithm 1's program order, with no serve, search or calibration layer.
#include <bit>
#include <vector>

#include "bench.hpp"
#include "core/accelerator.hpp"
#include "reference/functional.hpp"
#include "tensor/ops.hpp"

namespace perfbench {
namespace {

using namespace tfacc;

constexpr int kSeq = 64;
constexpr Cycle kPaperMhaCycles = 21188;
constexpr Cycle kPaperFfnCycles = 40516;
constexpr int kSetupReps = 7;
constexpr int kLayerReps = 25;

struct Weights {
  ModelConfig cfg = ModelConfig::transformer_base();
  MhaWeights mha;
  FfnWeights ffn;
  MhaQuantized::Calibration mha_calib;
  std::vector<MatF> ffn_calib;
  MatF x;  ///< the MHA input (self-attention: K = V = Q)
};

Weights make_weights(std::uint64_t seed) {
  Rng rng(seed);
  Weights w;
  w.mha = MhaWeights::random(w.cfg, rng);
  w.ffn = FfnWeights::random(w.cfg, rng);
  for (int i = 0; i < 2; ++i) {
    MatF q(kSeq, w.cfg.d_model), f(kSeq, w.cfg.d_model);
    fill_normal(q, rng, 0, 1);
    fill_normal(f, rng, 0, 1);
    w.mha_calib.q.push_back(q);
    w.mha_calib.kv.push_back(q);
    w.mha_calib.mask.push_back(no_mask(kSeq, kSeq));
    w.ffn_calib.push_back(f);
  }
  w.x = MatF(kSeq, w.cfg.d_model);
  fill_normal(w.x, rng, 0, 1);
  Digest digest;
  for (int r = 0; r < w.x.rows(); ++r)
    for (int c = 0; c < w.x.cols(); ++c)
      digest.add(std::bit_cast<std::uint32_t>(w.x(r, c)));
  std::printf("inputs seed=%llu s=%d d_model=%d heads=%d d_ff=%d digest=%s\n",
              static_cast<unsigned long long>(seed), kSeq, w.cfg.d_model,
              w.cfg.num_heads, w.cfg.d_ff, digest.hex().c_str());
  return w;
}

struct Blocks {
  MhaQuantized mha;
  FfnQuantized ffn;
  Accelerator acc;
};

Blocks build(const Weights& w) {
  return {MhaQuantized::build(w.mha, w.mha_calib, SoftmaxImpl::kHardware),
          FfnQuantized::build(w.ffn, w.ffn_calib), Accelerator{}};
}

}  // namespace

void run_resblock(const Options& opt, Report& rep) {
  const Weights w = make_weights(opt.seed);

  std::vector<double> setup;
  for (int i = 0; i < kSetupReps; ++i) {
    const double t0 = now_s();
    const Blocks b = build(w);
    setup.push_back(now_s() - t0);
  }
  const double t_build = now_s();
  const Blocks b = build(w);
  setup.push_back(now_s() - t_build);

  // Functional references: the quantized blocks' own forward passes. The
  // FFN consumes the MHA output, as in the encoder layer.
  const Mask mask = no_mask(kSeq, kSeq);
  const MatI8 q = b.mha.quantize_q(w.x), kv = b.mha.quantize_kv(w.x);
  const MatI8 mha_ref = b.mha.forward(q, kv, mask);
  const MatI8 ffn_in = b.ffn.quantize_in(b.mha.dequantize_out(mha_ref));
  const MatI8 ffn_ref = b.ffn.forward(ffn_in);

  if (opt.trace) {
    rep.set("quant.block_build_s", median(setup));
    std::vector<double> fm, ff, tm, tf;
    long bad = 0;
    for (int i = 0; i < kLayerReps; ++i) {
      double t0 = now_s();
      bad += b.acc.forward_mha(b.mha, q, kv, mask) != mha_ref;
      fm.push_back(now_s() - t0);
      t0 = now_s();
      bad += b.acc.forward_ffn(b.ffn, ffn_in) != ffn_ref;
      ff.push_back(now_s() - t0);
      t0 = now_s();
      bad += b.acc.time_mha(kSeq, kSeq, w.cfg.d_model, w.cfg.num_heads)
                 .total_cycles != kPaperMhaCycles;
      tm.push_back(now_s() - t0);
      t0 = now_s();
      bad += b.acc.time_ffn(kSeq, w.cfg.d_model, w.cfg.d_ff).total_cycles !=
             kPaperFfnCycles;
      tf.push_back(now_s() - t0);
    }
    rep.attempt(kLayerReps);
    rep.check(bad == 0,
              "functional halves are bit-exact and timing halves hit the "
              "paper pins",
              bad);
    rep.set("core.forward_mha_s", median(fm));
    rep.set("core.forward_ffn_s", median(ff));
    rep.set("core.time_mha_s", median(tm));
    rep.set("core.time_ffn_s", median(tf));
  } else {
    rep.timing("setup_s", setup, "s");
    rep.set("setup_s", median(setup));
  }

  // One untimed pair warms caches; then pairs run back to back until the
  // run's time is spent (trace 1 runs a fixed handful for the ledgers).
  auto m = b.acc.run_mha(b.mha, q, kv, mask);
  auto f = b.acc.run_ffn(b.ffn, ffn_in);
  std::vector<double> pairs;
  long bad = 0;
  const double deadline = now_s() + (opt.trace ? 0.0 : opt.seconds);
  do {
    const double t0 = now_s();
    m = b.acc.run_mha(b.mha, q, kv, mask);
    f = b.acc.run_ffn(b.ffn, ffn_in);
    pairs.push_back(now_s() - t0);
    if (opt.inject_mismatch && pairs.size() == 1) m.out(0, 0) ^= 1;
    bad += m.out != mha_ref || f.out != ffn_ref ||
           m.report.total_cycles != kPaperMhaCycles ||
           f.report.total_cycles != kPaperFfnCycles;
  } while (now_s() < deadline || pairs.size() < 3);
  rep.attempt(static_cast<long>(pairs.size()));
  rep.check(bad == 0,
            "run_mha/run_ffn outputs are bit-exact against MhaQuantized and "
            "FfnQuantized forward, with cycles 21188 and 40516 (" +
                std::to_string(pairs.size()) + " pairs)",
            bad);

  const auto& mr = m.report;
  const auto& fr = f.report;
  if (opt.trace) {
    rep.set("modeled_mha_cycles", static_cast<double>(mr.total_cycles));
    rep.set("modeled_ffn_cycles", static_cast<double>(fr.total_cycles));
    rep.set("core.resblock_sa_utilization",
            static_cast<double>(mr.sa_busy + fr.sa_busy) /
                static_cast<double>(mr.total_cycles + fr.total_cycles));
    run_kernels(rep);
    return;
  }
  rep.info("modeled_mha_cycles", static_cast<double>(mr.total_cycles),
           "cycles", "exact; per-layer metric");
  rep.info("modeled_ffn_cycles", static_cast<double>(fr.total_cycles),
           "cycles", "exact; per-layer metric");
  const double pair_s = fastest(pairs);
  rep.timing("pair_wall_s", pairs, "s");
  rep.set("host_resblocks_per_s", 1.0 / pair_s);
  rep.set("host_tokens_per_s", kSeq / pair_s);
  rep.set("peak_rss_mb", peak_rss_mb());
}

}  // namespace perfbench

// Tests for the extension features: beam-search decoding, the Fig. 5 memory
// layout, per-column weight quantization, and weight fault injection.
#include <gtest/gtest.h>

#include "core/accelerator.hpp"
#include "core/memories.hpp"
#include "quant/fault.hpp"
#include "reference/transformer.hpp"
#include "tensor/compare.hpp"
#include "tensor/ops.hpp"

namespace tfacc {
namespace {

ModelConfig micro_config() {
  ModelConfig cfg;
  cfg.name = "micro";
  cfg.d_model = 32;
  cfg.d_ff = 128;
  cfg.num_heads = 2;
  cfg.head_dim = 16;
  cfg.num_encoder_layers = 1;
  cfg.num_decoder_layers = 1;
  return cfg;
}

// --- Beam search --------------------------------------------------------------

TEST(BeamSearch, BeamOneEqualsGreedy) {
  Rng rng(1);
  Transformer model(TransformerWeights::random(micro_config(), 16, rng));
  Transformer::BeamConfig beam;
  beam.beam_size = 1;
  beam.length_penalty = 0.0f;  // pure logprob, like greedy
  for (const TokenSeq& src : {TokenSeq{3, 4, 5}, TokenSeq{6, 7, 8, 9}}) {
    EXPECT_EQ(model.translate_beam(src, 8, beam),
              model.translate_greedy(src, 8));
  }
}

TEST(BeamSearch, WiderBeamNeverWorseInModelScore) {
  // The beam-4 hypothesis must score at least as well (length-normalized
  // logprob) as the greedy one under the same model.
  Rng rng(2);
  Transformer model(TransformerWeights::random(micro_config(), 16, rng));
  const TokenSeq src{3, 5, 7, 9};
  const int max_len = 8;

  auto score = [&](const TokenSeq& out) {
    // Re-score a candidate with teacher forcing.
    const MatF memory = model.encode(src);
    TokenSeq tgt{kBosId};
    double logprob = 0.0;
    TokenSeq full = out;
    full.push_back(kEosId);
    for (int tok : full) {
      const auto logits =
          model.next_token_logits(tgt, memory, static_cast<int>(src.size()));
      float mx = logits[0];
      for (float v : logits) mx = std::max(mx, v);
      double sum = 0;
      for (float v : logits) sum += std::exp(static_cast<double>(v) - mx);
      logprob += logits[static_cast<std::size_t>(tok)] - mx - std::log(sum);
      tgt.push_back(tok);
    }
    const double len = std::max<std::size_t>(1, full.size());
    return logprob / std::pow((5.0 + len) / 6.0, 0.6);
  };

  Transformer::BeamConfig beam;
  beam.beam_size = 4;
  const TokenSeq beam_out = model.translate_beam(src, max_len, beam);
  const TokenSeq greedy_out = model.translate_greedy(src, max_len);
  EXPECT_GE(score(beam_out), score(greedy_out) - 1e-6);
}

TEST(BeamSearch, RespectsMaxLenAndStripsSpecials) {
  Rng rng(3);
  Transformer model(TransformerWeights::random(micro_config(), 16, rng));
  const TokenSeq out = model.translate_beam({3, 4}, 5);
  EXPECT_LE(static_cast<int>(out.size()), 5);
  for (int t : out) {
    EXPECT_NE(t, kBosId);
    EXPECT_NE(t, kEosId);
  }
}

TEST(BeamSearch, RejectsBadArgs) {
  Rng rng(4);
  Transformer model(TransformerWeights::random(micro_config(), 16, rng));
  Transformer::BeamConfig beam;
  beam.beam_size = 0;
  EXPECT_THROW(model.translate_beam({3}, 4, beam), CheckError);
  EXPECT_THROW(model.translate_beam({3}, 0), CheckError);
}

// --- Memory layout (Fig. 5) ----------------------------------------------------

TEST(MemoryLayout, Fig5SizesAtDesignPoint) {
  const auto layout =
      MemoryLayout::compute(ModelConfig::transformer_base(), 64);
  EXPECT_EQ(layout.bytes_of("input Q/X (s x 64h)"), 64 * 512);
  EXPECT_EQ(layout.bytes_of("Temp1 (s x max(s,64))"), 64 * 64);
  EXPECT_EQ(layout.bytes_of("Temp2 (s x 64)"), 64 * 64);
  EXPECT_EQ(layout.bytes_of("P / ReLU(XW1) (s x 256h)"), 64 * 2048);
  EXPECT_EQ(layout.bytes_of("G (s x d_model, INT16)"), 64 * 512 * 2);
  // Weight memory = FFN footprint (dominates the 4·d_model² MHA one).
  EXPECT_EQ(layout.bytes_of("weight memory"),
            2 * 512 * 2048 + (2048 + 512) * 4);
  EXPECT_THROW(layout.bytes_of("nonexistent"), CheckError);
}

TEST(MemoryLayout, Temp1GrowsWithLongSequences) {
  const auto s64 = MemoryLayout::compute(ModelConfig::transformer_base(), 64);
  const auto s128 =
      MemoryLayout::compute(ModelConfig::transformer_base(), 128);
  EXPECT_EQ(s64.bytes_of("Temp1 (s x max(s,64))"), 64 * 64);
  EXPECT_EQ(s128.bytes_of("Temp1 (s x max(s,64))"), 128 * 128);
}

TEST(MemoryLayout, DoubleBufferingDoublesWeights) {
  const ModelConfig cfg = ModelConfig::transformer_base();
  const auto single = MemoryLayout::compute(cfg, 64, false);
  const auto dbl = MemoryLayout::compute(cfg, 64, true);
  EXPECT_EQ(dbl.bytes_of("weight memory"),
            2 * single.bytes_of("weight memory"));
}

TEST(MemoryLayout, FitsTheXcvu13pBramBudget) {
  // The xcvu13p has 2,688 BRAM36 (plus URAM headroom); the full layout at
  // the paper's design point must fit comfortably.
  const auto layout =
      MemoryLayout::compute(ModelConfig::transformer_base(), 64);
  EXPECT_TRUE(layout.fits(2688));
  EXPECT_GT(layout.total_bytes(), 0);
  EXPECT_GT(layout.bram36(), 0.0);
}

// --- Per-column quantization ----------------------------------------------------

TEST(PerColumnQuant, MoreAccurateThanPerTensorOnSkewedColumns) {
  // Columns with very different magnitudes are the per-tensor worst case.
  Rng rng(5);
  const int k = 64, n = 32;
  MatF w(k, n), x(16, k);
  fill_normal(x, rng, 0, 1);
  for (int j = 0; j < n; ++j) {
    const float col_scale = (j % 2 == 0) ? 1.0f : 0.02f;  // skew
    for (int r = 0; r < k; ++r)
      w(r, j) = static_cast<float>(rng.normal(0, 0.3)) * col_scale;
  }
  std::vector<float> b(n, 0.0f);
  const MatF y = gemm(x, w);
  const float in_scale = calibrate(x, 127).scale;
  const float out_scale = calibrate(y, 127).scale;

  const auto per_tensor = QuantizedLinear::build(
      w, b, in_scale, out_scale, WeightGranularity::kPerTensor);
  const auto per_col = QuantizedLinear::build(
      w, b, in_scale, out_scale, WeightGranularity::kPerColumn);
  const MatI8 xi = quantize_i8(x, QuantParams{in_scale});

  // Compare at the INT32 accumulator (before the shared INT8 output
  // quantization floors both variants): weight-quantization error only.
  const MatI32 acc_tensor = per_tensor.accumulate(xi);
  const MatI32 acc_col = per_col.accumulate(xi);
  MatF yt(x.rows(), n), yc(x.rows(), n);
  for (int r = 0; r < x.rows(); ++r)
    for (int j = 0; j < n; ++j) {
      yt(r, j) = static_cast<float>(acc_tensor(r, j)) * in_scale *
                 per_tensor.w_scale;
      yc(r, j) = static_cast<float>(acc_col(r, j)) * in_scale *
                 per_col.col_w_scale[static_cast<std::size_t>(j)];
    }
  // The small-magnitude columns are where per-tensor scales destroy
  // precision (their weights quantize to a handful of levels); restrict the
  // comparison there — per-column must win by a wide margin.
  double small_tensor = 0.0, small_col = 0.0;
  int count = 0;
  for (int r = 0; r < x.rows(); ++r)
    for (int j = 1; j < n; j += 2) {  // the 0.02-scaled columns
      const double dt = static_cast<double>(yt(r, j)) - y(r, j);
      const double dc = static_cast<double>(yc(r, j)) - y(r, j);
      small_tensor += dt * dt;
      small_col += dc * dc;
      ++count;
    }
  small_tensor /= count;
  small_col /= count;
  EXPECT_LT(small_col, small_tensor * 0.05)
      << "tensor " << small_tensor << " col " << small_col;
  // Overall MSE is also never worse.
  EXPECT_LE(mse(y, yc), mse(y, yt) * 1.01);

  // At the INT8 output both remain valid and per-column is never worse.
  const double out_tensor =
      mse(y, dequantize(per_tensor.forward(xi), QuantParams{out_scale}));
  const double out_col =
      mse(y, dequantize(per_col.forward(xi), QuantParams{out_scale}));
  EXPECT_LE(out_col, out_tensor * 1.05);
}

TEST(PerColumnQuant, BlockwiseRequantizeMatchesWholeMatrix) {
  // The accelerator requantizes per 64-column block with offsets; results
  // must agree bit-for-bit with whole-matrix requantization.
  Rng rng(6);
  MatF w(32, 16), x(8, 32);
  fill_normal(w, rng, 0, 0.4);
  fill_normal(x, rng, 0, 1);
  std::vector<float> b(16, 0.01f);
  const auto ql = QuantizedLinear::build(w, b, 0.01f, 0.02f,
                                         WeightGranularity::kPerColumn);
  const MatI8 xi = quantize_i8(x, QuantParams{0.01f});
  const MatI32 acc = ql.accumulate(xi);
  const MatI8 whole = ql.requantize(acc);
  for (int c0 = 0; c0 < 16; c0 += 4) {
    const MatI8 blk = ql.requantize(acc.block(0, c0, acc.rows(), 4), c0);
    for (int r = 0; r < blk.rows(); ++r)
      for (int c = 0; c < 4; ++c) EXPECT_EQ(blk(r, c), whole(r, c0 + c));
  }
}

TEST(PerColumnQuant, AcceleratorStaysBitExactWithPerColumnFfn) {
  ModelConfig cfg;
  cfg.d_model = 128;
  cfg.d_ff = 512;
  cfg.num_heads = 2;
  cfg.head_dim = 64;
  Rng rng(7);
  const FfnWeights w = FfnWeights::random(cfg, rng);
  std::vector<MatF> samples{MatF(12, cfg.d_model)};
  fill_normal(samples[0], rng, 0, 1);
  const auto qf = FfnQuantized::build(w, samples, CalibMethod::kMaxAbs, 0.0f,
                                      WeightGranularity::kPerColumn);
  MatF x(12, cfg.d_model);
  fill_normal(x, rng, 0, 1);
  const MatI8 xi = qf.quantize_in(x);
  Accelerator acc;
  EXPECT_EQ(acc.run_ffn(qf, xi).out, qf.forward(xi));
}

// --- Fault injection ------------------------------------------------------------

TEST(FaultInjection, ZeroBerIsIdentity) {
  Rng rng(8);
  MatI8 m(16, 16);
  fill_uniform_i8(m, rng);
  const MatI8 orig = m;
  Rng frng(9);
  EXPECT_EQ(inject_bit_flips(m, 0.0, frng), 0);
  EXPECT_EQ(m, orig);
}

TEST(FaultInjection, FlipCountTracksBer) {
  Rng rng(10);
  MatI8 m(64, 64);
  fill_uniform_i8(m, rng);
  Rng frng(11);
  const double ber = 0.01;
  const std::int64_t flips = inject_bit_flips(m, ber, frng);
  const double expected = 64 * 64 * 8 * ber;  // ≈ 328
  EXPECT_NEAR(static_cast<double>(flips), expected, 4 * std::sqrt(expected));
}

TEST(FaultInjection, DegradationGrowsWithBer) {
  ModelConfig cfg;
  cfg.d_model = 128;
  cfg.d_ff = 512;
  cfg.num_heads = 2;
  cfg.head_dim = 64;
  Rng rng(12);
  const FfnWeights w = FfnWeights::random(cfg, rng);
  std::vector<MatF> samples{MatF(8, cfg.d_model)};
  fill_normal(samples[0], rng, 0, 1);
  const auto clean = FfnQuantized::build(w, samples);
  const MatI8 xi = clean.quantize_in(samples[0]);
  const MatF base = clean.dequantize_out(clean.forward(xi));

  double prev_cos = 1.1;
  for (double ber : {1e-4, 1e-2}) {
    FfnQuantized faulty = clean;
    Rng frng(13);
    inject_faults(faulty, ber, frng);
    const double cos =
        cosine_similarity(base, faulty.dequantize_out(faulty.forward(xi)));
    EXPECT_LT(cos, prev_cos);
    prev_cos = cos;
  }
  EXPECT_GT(prev_cos, 0.0);  // heavily degraded but not random-sign garbage
}

TEST(FaultInjection, PackedKernelSeesTheFlippedWeights) {
  // Every layer's packed accumulate must equal the dense GEMM on its mutated
  // w: a stale pack, or a stale Σb correction, would still read the clean
  // weights.
  ModelConfig cfg;
  cfg.d_model = 128;
  cfg.d_ff = 512;
  cfg.num_heads = 2;
  cfg.head_dim = 64;
  Rng rng(15);
  MatF sample(6, cfg.d_model);
  fill_normal(sample, rng, 0, 1);
  MhaQuantized::Calibration mcal;
  mcal.q = {sample};
  mcal.kv = {sample};
  mcal.mask = {Mask(6, 6)};
  FfnQuantized::Calibration fcal;
  fcal.x = {sample};
  MhaQuantized mha = MhaQuantized::build(MhaWeights::random(cfg, rng), mcal,
                                         SoftmaxImpl::kHardware);
  FfnQuantized ffn = FfnQuantized::build(FfnWeights::random(cfg, rng), fcal);

  std::vector<const QuantizedLinear*> layers;
  std::vector<MatI32> clean;
  for (const auto& h : mha.heads)
    for (const QuantizedLinear* l : {&h.wq, &h.wk, &h.wv}) layers.push_back(l);
  layers.push_back(&mha.wg);
  layers.push_back(&ffn.w1);
  layers.push_back(&ffn.w2);
  std::vector<MatI8> xs;
  for (const QuantizedLinear* l : layers) {
    MatI8 x(5, l->w.rows());
    fill_uniform_i8(x, rng);
    clean.push_back(l->accumulate(x));
    xs.push_back(std::move(x));
  }

  Rng frng(16);
  EXPECT_GT(inject_faults(mha, 1e-2, frng), 0);
  EXPECT_GT(inject_faults(ffn, 1e-2, frng), 0);
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const QuantizedLinear& l = *layers[i];
    const MatI32 got = l.accumulate(xs[i]);
    EXPECT_EQ(got, add_bias_i32(gemm_i8(xs[i], l.w), l.bias)) << "layer " << i;
    EXPECT_NE(got, clean[i]) << "layer " << i << " saw no flipped weight";
  }
}

TEST(FaultInjection, RejectsInvalidBer) {
  MatI8 m(2, 2);
  Rng rng(14);
  EXPECT_THROW(inject_bit_flips(m, -0.1, rng), CheckError);
  EXPECT_THROW(inject_bit_flips(m, 1.5, rng), CheckError);
}

}  // namespace
}  // namespace tfacc

// Tests for whole-model quantization: calibration capture, backend routing,
// and agreement between the quantized backend and the accelerator backend.
#include <gtest/gtest.h>

#include <memory>

#include "core/backend.hpp"
#include "quant/qtransformer.hpp"
#include "tensor/compare.hpp"

namespace tfacc {
namespace {

ModelConfig hw_tiny() {
  // Smallest hardware-compatible config: one 64-wide head.
  ModelConfig cfg;
  cfg.name = "hw-tiny";
  cfg.d_model = 64;
  cfg.d_ff = 256;
  cfg.num_heads = 1;
  cfg.head_dim = 64;
  cfg.num_encoder_layers = 1;
  cfg.num_decoder_layers = 1;
  return cfg;
}

Transformer make_model(int vocab, Rng& rng) {
  return Transformer(TransformerWeights::random(hw_tiny(), vocab, rng));
}

TEST(CapturingBackend, RecordsEveryBlockInvocation) {
  Rng rng(1);
  Transformer model = make_model(20, rng);
  CaptureStore store(model.shared_weights());
  model.set_backend(capturing_backend(store));
  // The capturing backend overrides only the batch-style mha/ffn hooks, so
  // supports_cached_decode() is false and the decode loop falls back to
  // full recompute — every block invocation must be recorded.
  model.translate_greedy({3, 4, 5}, 6);
  model.set_backend(ResBlockBackend{});
  // 1 encoder MHA + 1 decoder self + 1 decoder cross = 3 MHA slots;
  // 2 FFN slots (encoder + decoder), each one filled.
  ASSERT_EQ(store.mha.size(), 3u);
  ASSERT_EQ(store.ffn.size(), 2u);
  for (const MhaQuantized::Calibration& calib : store.mha) {
    EXPECT_GT(calib.q.size(), 0u);
    EXPECT_EQ(calib.q.size(), calib.kv.size());
    EXPECT_EQ(calib.q.size(), calib.mask.size());
  }
  for (const std::vector<MatF>& samples : store.ffn)
    EXPECT_GT(samples.size(), 0u);
}

TEST(QuantizedTransformer, BuildsAndTranslatesCloseToFp32) {
  Rng rng(2);
  Transformer model = make_model(24, rng);
  const std::vector<TokenSeq> calib{{3, 4, 5}, {6, 7, 8, 9}, {10, 11}};
  const auto qt = QuantizedTransformer::build(model, calib,
                                              /*max_len=*/8,
                                              SoftmaxImpl::kHardware);
  // Encoder memories must be numerically close between FP32 and INT8 paths.
  const TokenSeq src{3, 4, 5};
  const MatF ref = model.encode(src);
  model.set_backend(qt.backend());
  const MatF got = model.encode(src);
  model.set_backend(ResBlockBackend{});
  EXPECT_GT(cosine_similarity(ref, got), 0.98);
}

TEST(QuantizedTransformer, UnknownBlockThrows) {
  Rng rng(3);
  Transformer model = make_model(20, rng);
  const auto qt = QuantizedTransformer::build(model, {{3, 4, 5}}, 6,
                                              SoftmaxImpl::kFloatExact);
  const MhaWeights stranger = MhaWeights::random(hw_tiny(), rng);
  EXPECT_THROW(qt.mha_for(stranger), CheckError);
}

TEST(QuantizedTransformer, ServesEveryModelOnItsSharedWeights) {
  Rng rng(9);
  const std::vector<TokenSeq> calib{{3, 4, 5}, {6, 7, 8, 9}};
  const std::vector<TokenSeq> sources{{3, 4, 5}, {10, 11}, {6, 7, 8, 9, 12}};
  auto a = std::make_unique<Transformer>(
      TransformerWeights::random(hw_tiny(), 20, rng));
  const auto qt_a =
      QuantizedTransformer::build(*a, calib, 8, SoftmaxImpl::kHardware);
  Transformer b(a->shared_weights());
  const Transformer copy(a->weights());
  a.reset();  // qt_a outlives the model it was built on

  const auto qt_b =
      QuantizedTransformer::build(b, calib, 8, SoftmaxImpl::kHardware);
  for (const TokenSeq& src : sources) {
    b.set_backend(qt_a.backend());
    const TokenSeq from_a = b.translate_greedy(src, 8);
    b.set_backend(qt_b.backend());
    EXPECT_EQ(from_a, b.translate_greedy(src, 8));
  }

  // Equal weights at other addresses are not the calibrated model.
  EXPECT_THROW(qt_a.mha_for(copy.weights().encoder_layers[0].mha),
               CheckError);
}

/// The FP32 reference with every FFN call counted: a stand-in for a custom
/// backend whose presence after a call is observable.
ResBlockBackend counting_backend(int& ffn_calls) {
  ResBlockBackend b;
  b.ffn = [&ffn_calls](const MatF& x, const FfnWeights& w) {
    ++ffn_calls;
    return ffn_resblock(x, w);
  };
  return b;
}

TEST(QuantizedTransformer, ThrowingCalibrationLeavesModelLikeFresh) {
  Rng rng(7);
  const TransformerWeights weights =
      TransformerWeights::random(hw_tiny(), 20, rng);
  Transformer model(weights);
  // The second source's token is out of vocabulary, so calibration throws
  // after the capturing backend has already recorded the first source.
  EXPECT_THROW(QuantizedTransformer::build(model, {{3, 4, 5}, {99999}}, 6,
                                           SoftmaxImpl::kHardware),
               CheckError);
  const Transformer fresh(weights);
  for (const DecodeMode mode :
       {DecodeMode::kKvCache, DecodeMode::kFullRecompute})
    EXPECT_EQ(model.translate_greedy({3, 4, 5}, 6, mode),
              fresh.translate_greedy({3, 4, 5}, 6, mode));
}

TEST(QuantizedTransformer, BuildRestoresTheInstalledBackend) {
  Rng rng(8);
  Transformer model = make_model(20, rng);
  int ffn_calls = 0;
  model.set_backend(counting_backend(ffn_calls));
  (void)QuantizedTransformer::build(model, {{3, 4, 5}}, 6,
                                    SoftmaxImpl::kHardware);
  EXPECT_THROW(QuantizedTransformer::build(model, {{3, 4}, {99999}}, 6,
                                           SoftmaxImpl::kHardware),
               CheckError);
  EXPECT_EQ(ffn_calls, 0);  // calibration ran on the capturing backend
  model.translate_greedy({3, 4}, 6);
  EXPECT_GT(ffn_calls, 0);
}

TEST(QuantizedTransformer, TranslateRestoresBackend) {
  Rng rng(4);
  Transformer model = make_model(20, rng);
  const auto qt = QuantizedTransformer::build(model, {{3, 4, 5}}, 6,
                                              SoftmaxImpl::kHardware);
  const TokenSeq fp32_before = model.translate_greedy({3, 4}, 6);
  qt.translate_greedy(model, {3, 4}, 6);
  // After the quantized call the FP32 backend must be active again.
  EXPECT_EQ(model.translate_greedy({3, 4}, 6), fp32_before);

  // A custom backend installed before the call is the one restored.
  int ffn_calls = 0;
  model.set_backend(counting_backend(ffn_calls));
  qt.translate_greedy(model, {3, 4}, 6);
  EXPECT_EQ(ffn_calls, 0);  // the quantized backend served the call
  model.translate_greedy({3, 4}, 6);
  EXPECT_GT(ffn_calls, 0);
}

TEST(AcceleratorBackend, AgreesWithQuantizedBackendBitForBit) {
  // The accelerator computes the exact same INT8 arithmetic as the quantized
  // functional model, so the two backends must produce identical floats.
  Rng rng(5);
  Transformer model = make_model(24, rng);
  const std::vector<TokenSeq> calib{{3, 4, 5, 6}, {7, 8, 9}};
  const auto qt = QuantizedTransformer::build(model, calib, 8,
                                              SoftmaxImpl::kHardware);
  const TokenSeq src{4, 6, 8};

  model.set_backend(qt.backend());
  const MatF memory_q = model.encode(src);
  Accelerator acc;
  AcceleratorStats stats;
  model.set_backend(accelerator_backend(qt, acc, &stats));
  const MatF memory_a = model.encode(src);
  model.set_backend(ResBlockBackend{});

  EXPECT_DOUBLE_EQ(max_abs_diff(memory_q, memory_a), 0.0);
  EXPECT_EQ(stats.mha_runs, 1);
  EXPECT_EQ(stats.ffn_runs, 1);
  EXPECT_GT(stats.total_cycles(), 0);
}

TEST(AcceleratorBackend, AccumulatesCyclesAcrossDecode) {
  Rng rng(6);
  Transformer model = make_model(20, rng);
  const auto qt = QuantizedTransformer::build(model, {{3, 4, 5}}, 6,
                                              SoftmaxImpl::kHardware);
  Accelerator acc;
  AcceleratorStats stats;
  model.set_backend(accelerator_backend(qt, acc, &stats));
  model.translate_greedy({3, 4, 5}, 6);
  model.set_backend(ResBlockBackend{});
  EXPECT_GT(stats.mha_runs, stats.ffn_runs);  // self + cross per decoder step
  EXPECT_GT(stats.microseconds(200.0), 0.0);
}

}  // namespace
}  // namespace tfacc

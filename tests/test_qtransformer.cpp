// Tests for whole-model quantization: calibration capture, backend routing,
// and agreement between the quantized backend and the accelerator backend.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
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

/// FNV-1a over every scale, requantizer and packed weight byte of the
/// quantized blocks fed to it.
class BlockDigest {
 public:
  void mha(const MhaQuantized& m) {
    add(m.d_model, m.num_heads, m.head_dim, static_cast<int>(m.softmax_impl));
    add(m.q_in_scale, m.kv_in_scale);
    for (const MhaQuantized::Head& h : m.heads) {
      linear(h.wq);
      linear(h.wk);
      linear(h.wv);
      add(h.av_requant);
    }
    linear(m.wg);
    add(m.p_scale, m.g_scale, m.wg_to_g, m.residual_to_g, m.out_scale,
        m.norm.out_scale());
  }
  void ffn(const FfnQuantized& f) {
    add(f.d_model, f.d_ff, f.in_scale);
    linear(f.w1);
    linear(f.w2);
    add(f.g_scale, f.w2_to_g, f.residual_to_g, f.out_scale,
        f.norm.out_scale());
  }
  std::uint64_t value() const { return h_; }

 private:
  void bytes(const void* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= static_cast<const unsigned char*>(p)[i];
      h_ *= 1099511628211ULL;
    }
  }
  void one(int v) { bytes(&v, sizeof v); }
  void one(float v) { bytes(&v, sizeof v); }
  void one(const FixedPointScale& s) { add(s.mantissa, s.shift); }
  template <typename... Ts>
  void add(const Ts&... vs) {
    (one(vs), ...);
  }
  void linear(const QuantizedLinear& q) {
    bytes(q.w.data(), q.w.size());
    bytes(q.bias.data(), q.bias.size() * sizeof(std::int32_t));
    add(q.in_scale, q.w_scale, q.out_scale, q.requant,
        static_cast<int>(q.granularity));
    for (const float s : q.col_w_scale) one(s);
    for (const FixedPointScale& s : q.col_requant) one(s);
    add(q.wpack.k, q.wpack.n, q.wpack.k_pad);
    bytes(q.wpack.data.data(),
          static_cast<std::size_t>(q.wpack.n) * q.wpack.k_pad);
  }

  std::uint64_t h_ = 1469598103934665603ULL;
};

/// Digest of every block of `weights`, in model order.
template <typename MhaFn, typename FfnFn>
std::uint64_t model_digest(const TransformerWeights& weights, MhaFn&& mha,
                           FfnFn&& ffn) {
  BlockDigest d;
  std::size_t slot = 0;
  for (const auto& layer : weights.encoder_layers) d.mha(mha(layer.mha, slot++));
  for (const auto& layer : weights.decoder_layers) {
    d.mha(mha(layer.self_mha, slot++));
    d.mha(mha(layer.cross_mha, slot++));
  }
  slot = 0;
  for (const auto& layer : weights.encoder_layers) d.ffn(ffn(layer.ffn, slot++));
  for (const auto& layer : weights.decoder_layers) d.ffn(ffn(layer.ffn, slot++));
  return d.value();
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
  for (const FfnQuantized::Calibration& calib : store.ffn)
    EXPECT_GT(calib.x.size(), 0u);
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

/// hw-tiny with two encoder and two decoder layers, so every kind of
/// capture slot occurs more than once.
ModelConfig hw_two_layers() {
  ModelConfig cfg = hw_tiny();
  cfg.num_encoder_layers = 2;
  cfg.num_decoder_layers = 2;
  return cfg;
}

/// Calibration by full recompute, built from public API only: record every
/// block input of a full-recompute FP32 greedy decode of each source, each
/// row once, then build every block from its samples.
std::uint64_t full_recompute_digest(const Transformer& model,
                                    const std::vector<TokenSeq>& sources,
                                    int max_len, SoftmaxImpl impl,
                                    CalibMethod method) {
  CaptureStore store(model.shared_weights());
  Transformer capture(store.weights);
  capture.set_backend(capturing_backend(store));
  for (const TokenSeq& src : sources)
    capture.translate_greedy(src, max_len, DecodeMode::kFullRecompute);
  return model_digest(
      *store.weights,
      [&](const MhaWeights& w, std::size_t slot) {
        return MhaQuantized::build(w, store.mha[slot], impl, method);
      },
      [&](const FfnWeights& w, std::size_t slot) {
        return FfnQuantized::build(w, store.ffn[slot], method);
      });
}

TEST(QuantizedTransformer, CapturePassMatchesFullRecomputeCalibration) {
  Rng rng(10);
  TransformerWeights weights =
      TransformerWeights::random(hw_two_layers(), 20, rng);
  // A louder EOS column, so that some greedy decodes stop on EOS.
  for (int r = 0; r < weights.output_projection.rows(); ++r)
    weights.output_projection(r, kEosId) *= 3.0f;
  const Transformer model(std::move(weights));
  // {5, 6, 7, 0, 0} is PAD-tailed: its padded memory rows are cross-
  // attention K/V samples too.
  const std::vector<TokenSeq> sources{
      {3, 4, 5},
      {6, 7, 8, 9, 10, 11},
      {12},
      {5, 6, 7, 0, 0},
      {3, 5, 7, 9, 11, 13, 15, 17, 19, 4, 6, 8, 10, 12, 14, 16, 18, 3, 4, 5}};
  constexpr int kMaxLen = 8;
  // The sources cover both ways greedy decoding stops at kMaxLen: on EOS
  // before it and by reaching it.
  std::vector<std::size_t> lengths;
  for (const TokenSeq& src : sources)
    lengths.push_back(model.translate_greedy(src, kMaxLen).size());
  EXPECT_LT(*std::min_element(lengths.begin(), lengths.end()),
            std::size_t{kMaxLen});
  EXPECT_EQ(*std::max_element(lengths.begin(), lengths.end()),
            std::size_t{kMaxLen});

  for (const int max_len : {1, 2, kMaxLen})
    for (const CalibMethod method :
         {CalibMethod::kMaxAbs, CalibMethod::kPercentile999})
      for (const SoftmaxImpl impl :
           {SoftmaxImpl::kHardware, SoftmaxImpl::kFloatExact}) {
        const auto qt =
            QuantizedTransformer::build(model, sources, max_len, impl, method);
        const std::uint64_t got = model_digest(
            model.weights(),
            [&](const MhaWeights& w, std::size_t) { return qt.mha_for(w); },
            [&](const FfnWeights& w, std::size_t) { return qt.ffn_for(w); });
        EXPECT_EQ(got, full_recompute_digest(model, sources, max_len, impl,
                                             method))
            << "max_len " << max_len << " method "
            << static_cast<int>(method) << " impl " << static_cast<int>(impl);
      }
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
